package compart

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// The batch frame is the transport's coalescing unit: one KindBatch envelope
// packs N already-encoded message frames so a burst of back-to-back sends
// costs one length-prefixed write (and one syscall after the flush) instead
// of N. The envelope is an ordinary Message — Kind KindBatch, empty
// From/To/Key, and a payload of
//
//	[uint32 count] ([uint32 len][message frame])*
//
// so it travels through writeFrame/readFrame/DecodeMessage unchanged.
// Batches never nest: senders only pack non-batch frames, and receivers
// (Server.serveConn) unpack the envelope and inject the inner messages, so
// application handlers never see KindBatch.

// batchEnvelopeOverhead is the encoded size of the KindBatch envelope around
// its payload: kind, flag, three empty length-prefixed strings, and the
// payload length.
const batchEnvelopeOverhead = 1 + 1 + 3*2 + 4

// minMessageFrame is the smallest possible encoded message frame (empty
// strings, empty payload, and no Seq: only KindProp/KindData frames carry
// one); DecodeBatch uses it to reject absurd counts before allocating.
const minMessageFrame = 1 + 1 + 3*2 + 4

// maxCoalesce bounds how many frames a coalescing writer drains into one
// flush. It caps per-batch latency and the transient [][]byte scratch, while
// staying far above the in-flight window any one sender sustains.
const maxCoalesce = 256

// appendBatchEnvelope appends the KindBatch frame packing the given
// pre-encoded message frames to dst. Callers must have checked the total
// size against maxFrame (writeCoalesced does).
func appendBatchEnvelope(dst []byte, bodies [][]byte) []byte {
	payload := 4
	for _, b := range bodies {
		payload += 4 + len(b)
	}
	if n := len(dst) + batchEnvelopeOverhead + payload; cap(dst) < n {
		grown := make([]byte, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, byte(KindBatch), 0)
	dst = append(dst, 0, 0, 0, 0, 0, 0) // empty From, To, Key
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bodies)))
	for _, b := range bodies {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// DecodeBatch unpacks the payload of a KindBatch message into its inner
// messages. The payload must be consumed exactly; any framing inconsistency
// fails the whole batch (the server counts it as one decode error). Every
// inner message owns its memory (payloads are copied out of the envelope),
// so each is Owned.
func DecodeBatch(payload []byte) ([]Message, error) {
	return decodeBatch(payload, nil)
}

// decodeBatch is DecodeBatch with an optional intern cache. With si non-nil
// the inner messages intern their From/To/Key strings through it AND alias
// their payloads into the envelope buffer — only valid when the caller owns
// the envelope and never reuses its memory (Server.serveConn reads each
// frame into a fresh buffer). Aliased members share the envelope, so they
// are not Owned: a receiver that keeps one member's payload copies it
// rather than pinning every other member's bytes.
func decodeBatch(payload []byte, si strIntern) ([]Message, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("compart: truncated batch count")
	}
	count := binary.BigEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(count)*(4+minMessageFrame) > uint64(len(rest)) {
		return nil, fmt.Errorf("compart: batch count %d exceeds %d payload bytes", count, len(rest))
	}
	msgs := make([]Message, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("compart: truncated batch entry %d length", i)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("compart: batch entry %d of %d bytes but %d remain", i, n, len(rest))
		}
		m, err := decodeMessageIn(rest[:n], si, si != nil)
		if err != nil {
			return nil, fmt.Errorf("compart: batch entry %d: %w", i, err)
		}
		if m.Kind == KindBatch {
			return nil, fmt.Errorf("compart: nested batch at entry %d", i)
		}
		msgs = append(msgs, m)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("compart: %d trailing bytes after batch", len(rest))
	}
	return msgs, nil
}

// writeCoalesced writes pre-encoded message frames to w, packing runs of two
// or more into KindBatch envelopes so the buffered writer sees one frame per
// drained run. A run whose envelope would exceed maxFrame is split across
// several envelopes; a frame too large to share an envelope goes out plain.
//
// It returns how many of the input bodies were handed to w before any error:
// callers account those as sent and the remainder as dropped, keeping the
// conservation invariant exact across connection deaths.
func writeCoalesced(w io.Writer, bodies [][]byte, onBatch func(msgs int)) (written int, err error) {
	if len(bodies) == 1 {
		if err := writeFrame(w, bodies[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	var scratch []byte
	for start := 0; start < len(bodies); {
		size := batchEnvelopeOverhead + 4
		end := start
		for end < len(bodies) {
			fs := 4 + len(bodies[end])
			if end > start && size+fs > maxFrame {
				break
			}
			size += fs
			end++
		}
		if end == start+1 && size > maxFrame {
			// A single near-maxFrame body: no envelope fits around it.
			if err := writeFrame(w, bodies[start]); err != nil {
				return written, err
			}
			written++
			start = end
			continue
		}
		scratch = appendBatchEnvelope(scratch[:0], bodies[start:end])
		if err := writeFrame(w, scratch); err != nil {
			return written, err
		}
		if onBatch != nil {
			onBatch(end - start)
		}
		written += end - start
		start = end
	}
	return written, nil
}

// sizeHistBuckets is the number of power-of-two batch-size buckets: bucket b
// counts batches of 2^b .. 2^(b+1)-1 messages.
const sizeHistBuckets = 16

// SizeHist is a small power-of-two histogram of batch sizes (messages per
// KindBatch envelope) — the MsgsPerBatch summary of the conserved-stats
// layer. It is a plain value; owners mutate it under their own lock and
// expose copies in stats snapshots.
type SizeHist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [sizeHistBuckets]uint64
}

// observe records one batch of n messages.
func (h *SizeHist) observe(n int) {
	if n <= 0 {
		return
	}
	u := uint64(n)
	if h.Count == 0 || u < h.Min {
		h.Min = u
	}
	if u > h.Max {
		h.Max = u
	}
	h.Count++
	h.Sum += u
	b := bits.Len64(u) - 1
	if b >= sizeHistBuckets {
		b = sizeHistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the mean batch size, or 0 when no batches were observed.
func (h SizeHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
