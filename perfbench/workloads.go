package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/miniredis"
	"csaw/internal/patterns"
	csr "csaw/internal/runtime"
	"csaw/internal/serial"
	kvgen "csaw/internal/workload"
)

// workload is one named traffic mix over its own architecture.
type workload struct {
	name    string
	why     string
	clients int
	warmup  time.Duration
	// migrating workloads run a migrator goroutine beside the clients
	// instead of the post-window migration probe.
	migrating bool
	spans     spanPlan
	newArch   func(seed int64, tr *recorder) *arch
}

var workloads = []*workload{
	{
		name:    "shard-kv",
		why:     "paper Fig. 5/7 Redis sharding, 1 closed-loop client: the per-request path (four acked single updates plus two guard wakes, batches of ~1)",
		clients: 1,
		warmup:  3 * time.Second,
		spans:   requestSpans,
		newArch: newShardKV,
	},
	{
		name:    "fanout",
		why:     "2 sources x 128-arm par of remote asserts to a sink whose guard never holds, 2 clients: the throughput-bound update plane (coalescing, batch decode, ack windows)",
		clients: 2,
		warmup:  3 * time.Second,
		spans:   fanoutSpans,
		newArch: newFanout,
	},
	{
		name:    "checkpoint",
		why:     "paper Fig. 4 remote snapshot of a 4000-key mini-Redis (~315 KB image) per op, 1 client: per-byte costs of codec, frames and KV copies",
		clients: 1,
		warmup:  8 * time.Second,
		spans:   requestSpans,
		newArch: newCheckpoint,
	},
	{
		name:      "migrate",
		why:       "shard-kv traffic while Bck1 live-migrates between A and B every 10 ms: the only workload on the reconfiguration path",
		clients:   1,
		warmup:    3 * time.Second,
		migrating: true,
		spans:     requestSpans,
		newArch:   newShardKV,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// reqTimeout is every architecture's otherwise[t] deadline: far beyond any
// healthy round, so a timeout is a failure, never a scheduling hiccup.
const reqTimeout = 10 * time.Second

// stamp fills v with the value a key holds after its seq-th SET: the
// sequence number, the key's hash and a seq-dependent pattern, so a GET
// that returns another key's or an older value never passes the check.
func stamp(v []byte, key string, seq uint64) []byte {
	binary.BigEndian.PutUint64(v, seq)
	binary.BigEndian.PutUint32(v[8:], kvgen.Djb2(key))
	for i := 12; i < len(v); i++ {
		v[i] = byte(seq) + byte(i)
	}
	return v
}

// --- shard-kv / migrate ------------------------------------------------------

const (
	kvKeys   = 5000
	kvShards = 4
	kvValue  = 64
)

// kvReq is the request and response record crossing the sharding
// architecture, encoded with internal/serial.
type kvReq struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

// shardKV drives the Redis sharding architecture: Fnt at A routes each
// request by key hash to one of four mini-Redis back-ends at B.
type shardKV struct {
	tr      *recorder
	servers [kvShards]*miniredis.Server
	stream  *kvgen.KVStream

	// Client-owned: the shadow map of every key's last SET sequence.
	seq    uint64
	shadow map[string]uint64
	want   []byte

	mu         sync.Mutex // hands the request to the hooks and the response back
	pending    kvReq
	resp       kvReq
	delivered  bool
	complaints atomic.Uint64
}

func newShardKV(seed int64, tr *recorder) *arch {
	k := &shardKV{
		tr:     tr,
		shadow: make(map[string]uint64, kvKeys),
		want:   make([]byte, kvValue),
		stream: kvgen.NewKVStream(kvgen.KVConfig{
			Keys: kvKeys, ReadFraction: 0.9, HotFraction: 0.1, HotProbability: 0.9,
			ValueSize: kvValue, Seed: seed,
		}),
	}
	a := &arch{
		apps:    map[string]any{},
		preload: k.preload,
		roots:   []rootRef{{patterns.FrontInstance, patterns.ShardJunction}},
		op:      k.op,
		check:   func(*csr.System) error { return nil },
		probe:   patterns.BackInstance(0),
	}
	for i := range k.servers {
		k.servers[i] = miniredis.NewServer()
		a.apps[patterns.BackInstance(i)] = k.servers[i]
		a.atB = append(a.atB, patterns.BackInstance(i))
	}
	a.close = func() {
		for _, s := range k.servers {
			s.Close()
		}
	}
	a.prog = patterns.Sharding(patterns.ShardingConfig{
		N:               kvShards,
		Timeout:         reqTimeout,
		Choose:          patterns.KeyHashChooser(kvShards, k.key),
		CaptureRequest:  k.capture,
		HandleRequest:   k.handle,
		DeliverResponse: k.deliver,
		Complain: func(dsl.HostCtx) error {
			k.complaints.Add(1)
			return nil
		},
	})
	return a
}

// preload sets every key of the keyspace (sequence 0) on its shard, so
// every GET has a value to check.
func (k *shardKV) preload() error {
	for i := 0; i < kvKeys; i++ {
		key := fmt.Sprintf("key:%06d", i)
		k.shadow[key] = 0
		srv := k.servers[kvgen.Djb2(key)%kvShards]
		if err := srv.Set(key, stamp(make([]byte, kvValue), key, 0)); err != nil {
			return err
		}
	}
	return nil
}

func (k *shardKV) key(dsl.HostCtx) (string, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.pending.Key, nil
}

func (k *shardKV) capture(dsl.HostCtx) ([]byte, error) {
	k.mu.Lock()
	req := k.pending
	k.mu.Unlock()
	t := k.tr.now()
	b, err := serial.Marshal(req)
	k.tr.hook(hookEncode, t, len(b))
	k.tr.mark(bCaptureEnd, k.tr.now())
	return b, err
}

func (k *shardKV) handle(ctx dsl.HostCtx, b []byte) ([]byte, error) {
	k.tr.mark(bHandleStart, k.tr.now())
	defer func() { k.tr.mark(bHandleEnd, k.tr.now()) }()
	var req kvReq
	t := k.tr.now()
	if err := serial.Unmarshal(b, &req); err != nil {
		return nil, err
	}
	k.tr.hook(hookDecode, t, len(b))
	srv := ctx.App().(*miniredis.Server)
	resp := kvReq{Get: req.Get, Key: req.Key}
	t = k.tr.now()
	if req.Get {
		v, ok, err := srv.Get(req.Key)
		if err != nil {
			return nil, err
		}
		k.tr.hook(hookRedisGet, t, 0)
		resp.Value, resp.Found = v, ok
	} else {
		if err := srv.Set(req.Key, req.Value); err != nil {
			return nil, err
		}
		k.tr.hook(hookRedisSet, t, 0)
		resp.Found = true
	}
	t = k.tr.now()
	out, err := serial.Marshal(resp)
	k.tr.hook(hookEncode, t, len(out))
	return out, err
}

func (k *shardKV) deliver(_ dsl.HostCtx, b []byte) error {
	var resp kvReq
	t := k.tr.now()
	if err := serial.Unmarshal(b, &resp); err != nil {
		return err
	}
	k.tr.hook(hookDecode, t, len(b))
	k.mu.Lock()
	k.resp, k.delivered = resp, true
	k.mu.Unlock()
	return nil
}

// op sends the stream's next request through Fnt and checks the reply
// against the shadow map: a GET must return the last value set.
func (k *shardKV) op(ctx context.Context, sys *csr.System, _ int) (time.Duration, error) {
	o := k.stream.Next()
	req := kvReq{Get: o.Get, Key: o.Key}
	seq := k.seq + 1
	if !o.Get {
		req.Value = stamp(make([]byte, kvValue), o.Key, seq)
	}
	complaints := k.complaints.Load()
	k.mu.Lock()
	k.pending, k.delivered = req, false
	k.mu.Unlock()

	root := patterns.FrontInstance + "::" + patterns.ShardJunction
	t0 := time.Now()
	k.tr.opBegin(root, t0)
	err := sys.Invoke(ctx, patterns.FrontInstance, patterns.ShardJunction)
	d := time.Since(t0)
	k.tr.opEnd(root, t0.Add(d))
	if err != nil {
		return d, err
	}

	k.mu.Lock()
	resp, delivered := k.resp, k.delivered
	k.mu.Unlock()
	switch {
	case k.complaints.Load() != complaints:
		return d, errors.New("request round timed out (complain ran)")
	case !delivered:
		return d, fmt.Errorf("no response delivered for %q", req.Key)
	case resp.Key != req.Key || resp.Get != req.Get:
		return d, fmt.Errorf("request for %q (get=%v) answered with the response for %q (get=%v)", req.Key, req.Get, resp.Key, resp.Get)
	case !resp.Found:
		return d, fmt.Errorf("key %q not found", req.Key)
	case req.Get:
		if want := stamp(k.want, req.Key, k.shadow[req.Key]); !bytes.Equal(resp.Value, want) {
			return d, fmt.Errorf("GET %q returned a value other than its last SET (seq %d)", req.Key, k.shadow[req.Key])
		}
	default:
		k.seq = seq
		k.shadow[req.Key] = seq
	}
	return d, nil
}

// --- fanout ------------------------------------------------------------------

const (
	fanSources = 2
	fanArms    = 128
	fanSink    = "sink"
)

type fanout struct {
	done atomic.Uint64 // completed invocations
}

func fanSource(i int) string { return fmt.Sprintf("s%d", i) }

func newFanout(_ int64, tr *recorder) *arch {
	f := &fanout{}
	p := dsl.NewProgram()
	arms := make(dsl.Par, fanArms)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J(fanSink, "main"), Prop: dsl.PR("U")}
	}
	p.Type("src").Junction("push", dsl.Def(nil, arms))
	// Go is never asserted, so the guard never holds and the body never
	// runs. Reading U subscribes the sink's driver to the arriving asserts,
	// whose wake applies the pending queue (otherwise it would grow for the
	// whole run).
	p.Type("sinkT").Junction("main", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.And(formula.P("Go"), formula.P("U"))))
	starts := dsl.Par{dsl.Start{Instance: fanSink}}
	a := &arch{
		prog:  p,
		atB:   []string{fanSink},
		apps:  map[string]any{},
		probe: fanSink,
		close: func() {},
	}
	p.Instance(fanSink, "sinkT")
	for i := 0; i < fanSources; i++ {
		p.Instance(fanSource(i), "src")
		starts = append(starts, dsl.Start{Instance: fanSource(i)})
		a.roots = append(a.roots, rootRef{fanSource(i), "push"})
	}
	p.SetMain(starts)

	a.op = func(ctx context.Context, sys *csr.System, client int) (time.Duration, error) {
		src := fanSource(client % fanSources)
		t0 := time.Now()
		tr.opBegin(src+"::push", t0)
		err := sys.Invoke(ctx, src, "push")
		d := time.Since(t0)
		tr.opEnd(src+"::push", t0.Add(d))
		if err == nil {
			f.done.Add(1)
		}
		return d, err
	}
	// Every completed invocation delivered fanArms asserts to the sink, each
	// acknowledged only after it was queued there.
	a.check = func(sys *csr.System) error {
		want := fanArms * f.done.Load()
		for _, j := range sys.Metrics().Junctions {
			if j.Junction == fanSink+"::main" {
				if j.RemoteQueued != want {
					return fmt.Errorf("sink queued %d remote updates, want %d x %d = %d", j.RemoteQueued, fanArms, f.done.Load(), want)
				}
				return nil
			}
		}
		return errors.New("sink junction has no metrics")
	}
	return a
}

// --- checkpoint ----------------------------------------------------------------

const (
	ckptKeys  = 4000
	ckptValue = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkpoint drives the remote-snapshot architecture: Act at A captures its
// mini-Redis and ships the image to Aud at B, which checks it hashes equal
// to what was captured.
type checkpoint struct {
	tr   *recorder
	srv  *miniredis.Server
	rng  *rand.Rand
	keys []string
	seq  uint64

	captured   atomic.Uint32 // crc of the last captured image
	applied    atomic.Uint64
	mismatched atomic.Uint64
	complaints atomic.Uint64
}

func newCheckpoint(seed int64, tr *recorder) *arch {
	c := &checkpoint{tr: tr, srv: miniredis.NewServer(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < ckptKeys; i++ {
		c.keys = append(c.keys, fmt.Sprintf("ckpt:%05d", i))
	}
	root := rootRef{patterns.ActInstance, patterns.SnapshotJunction}
	return &arch{
		prog: patterns.Snapshot(patterns.SnapshotConfig{
			Timeout: reqTimeout,
			Capture: c.capture,
			Apply:   c.apply,
			Complain: func(dsl.HostCtx) error {
				c.complaints.Add(1)
				return nil
			},
		}),
		atB:     []string{patterns.AudInstance},
		apps:    map[string]any{},
		preload: c.preload,
		roots:   []rootRef{root},
		op:      c.op,
		check:   func(*csr.System) error { return nil },
		probe:   patterns.AudInstance,
		close:   c.srv.Close,
	}
}

func (c *checkpoint) preload() error {
	for _, k := range c.keys {
		if err := c.srv.Set(k, stamp(make([]byte, ckptValue), k, 0)); err != nil {
			return err
		}
	}
	return nil
}

func (c *checkpoint) capture(dsl.HostCtx) ([]byte, error) {
	t := c.tr.now()
	img, err := c.srv.Snapshot()
	if err != nil {
		return nil, err
	}
	c.tr.hook(hookRedisSnapshot, t, len(img))
	c.captured.Store(crc32.Checksum(img, castagnoli))
	c.tr.mark(bCaptureEnd, c.tr.now())
	return img, nil
}

func (c *checkpoint) apply(_ dsl.HostCtx, img []byte) error {
	c.tr.mark(bHandleStart, c.tr.now())
	if crc32.Checksum(img, castagnoli) != c.captured.Load() {
		c.mismatched.Add(1)
	}
	c.applied.Add(1)
	c.tr.mark(bHandleEnd, c.tr.now())
	return nil
}

// op changes one key (so every image differs from the last), then
// checkpoints; the checkpoint must be applied exactly once, intact.
func (c *checkpoint) op(ctx context.Context, sys *csr.System, _ int) (time.Duration, error) {
	key := c.keys[c.rng.Intn(len(c.keys))]
	c.seq++
	if err := c.srv.Set(key, stamp(make([]byte, ckptValue), key, c.seq)); err != nil {
		return 0, err
	}
	applied, mismatched, complaints := c.applied.Load(), c.mismatched.Load(), c.complaints.Load()

	root := patterns.ActInstance + "::" + patterns.SnapshotJunction
	t0 := time.Now()
	c.tr.opBegin(root, t0)
	err := sys.Invoke(ctx, patterns.ActInstance, patterns.SnapshotJunction)
	d := time.Since(t0)
	c.tr.opEnd(root, t0.Add(d))
	switch {
	case err != nil:
		return d, err
	case c.complaints.Load() != complaints:
		return d, errors.New("checkpoint round timed out (complain ran)")
	case c.mismatched.Load() != mismatched:
		return d, errors.New("image received by Aud does not hash-equal the image captured")
	case c.applied.Load() != applied+1:
		return d, fmt.Errorf("checkpoint applied %d times, want once", c.applied.Load()-applied)
	}
	return d, nil
}
