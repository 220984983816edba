package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hist is a latency histogram with log-spaced buckets: bucket i holds
// values in [histMin·histRatio^i, histMin·histRatio^(i+1)) µs. Recording
// allocates nothing and its memory is fixed, so the load generator, which
// shares the process with the servers, neither feeds nor starves their
// garbage collector the way a growing sample slice would. Quantiles
// interpolate within a bucket, 1% wide.
type hist struct {
	counts [histSize]uint32
	n      int64
}

const (
	histMin   = 0.1 // µs
	histRatio = 1.01
	histSize  = 2400 // up to about 300 s
)

var histLogRatio = math.Log(histRatio)

func (h *hist) add(v float64) {
	i := 0
	if v > histMin {
		i = min(int(math.Log(v/histMin)/histLogRatio), histSize-1)
	}
	h.counts[i]++
	h.n++
}

// trimmedMean is the mean of the smallest q share of the samples, each
// counted at its bucket's midpoint, or 0 for an empty histogram.
func (h *hist) trimmedMean(q float64) float64 {
	keep := q * float64(h.n)
	var taken, sum float64
	for i, c := range h.counts {
		if taken >= keep {
			break
		}
		take := math.Min(float64(c), keep-taken)
		sum += take * histMin * math.Pow(histRatio, float64(i)+0.5)
		taken += take
	}
	if taken == 0 {
		return 0
	}
	return sum / taken
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated by rank within its
// bucket, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c > 0 && below+float64(c) >= rank {
			lo := histMin * math.Pow(histRatio, float64(i))
			return lo + lo*(histRatio-1)*(rank-below)/float64(c)
		}
		below += float64(c)
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// digest is FNV-1a over 64-bit words: the ladder fingerprints fold every
// rung's answers through it so that rungs can be compared for equality.
type digest uint64

func newDigest() digest { return 0xcbf29ce484222325 }

func (d digest) u64(x uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(x & 0xff)
		d *= 0x100000001b3
		x >>= 8
	}
	return d
}

// hostRecord is the calibration printed with every result, so a reader
// can tell a host change from a regression: a fixed spin kernel's cost,
// how much a second goroutine adds, and the runtime's view of the CPUs.
type hostRecord struct {
	SpinNsPerOp      float64 `json:"spin_ns_per_op"`
	TwoWorkerSpeedup float64 `json:"two_goroutine_speedup"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"nproc"`
	GoVersion        string  `json:"go_version"`
}

// processCPU returns the CPU time the process has run so far, user and
// system, over all its threads. On Linux it excludes the time a
// hypervisor ran other guests on the process's CPU (steal) and the time
// the process waited for a CPU, which wall time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const spinOps = 1 << 22

var spinSink uint64

// spin is the calibration kernel: a xorshift chain that cannot be
// vectorised or elided.
func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func calibrateHost() hostRecord {
	serial := make([]float64, 5)
	for i := range serial {
		t0 := time.Now()
		spinSink += spin(spinOps)
		serial[i] = float64(time.Since(t0))
	}
	one := median(serial)
	pair := make([]float64, 3)
	for i := range pair {
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := spin(spinOps)
				mu.Lock()
				spinSink += x
				mu.Unlock()
			}()
		}
		wg.Wait()
		pair[i] = float64(time.Since(t0))
	}
	return hostRecord{
		SpinNsPerOp:      one / spinOps,
		TwoWorkerSpeedup: 2 * one / median(pair),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		GoVersion:        runtime.Version(),
	}
}

// addMetrics adds the calibration to a traced run's per-layer metrics.
func (h hostRecord) addMetrics(m map[string]metric) {
	m["host.spin_ns_per_op"] = metric{h.SpinNsPerOp, "ns"}
	m["host.two_goroutine_speedup"] = metric{h.TwoWorkerSpeedup, "ratio"}
}
