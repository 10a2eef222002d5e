package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo] + (xs[hi]-xs[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, yielding 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// provenance names the code, toolchain and host behind a record.
type provenance struct {
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Setups     int     `json:"setups"`
}

func newProvenance(commit, root string, seed int64, warmup, window time.Duration, setups int) provenance {
	return provenance{
		Commit:     commit,
		SourceHash: sourceHash(root),
		GoVersion:  goruntime.Version(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NumCPU:     goruntime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       seed,
		WarmupS:    warmup.Seconds(),
		WindowS:    window.Seconds(),
		Setups:     setups,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests go.mod and every .go file under root (sorted by path),
// identifying the code under test when the checkout carries no git
// metadata. Build outputs under dot-directories are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
