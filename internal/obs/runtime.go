package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// StartRuntimeSampler starts a goroutine that samples runtime/metrics every
// interval into reg: live heap bytes, goroutine count, completed GC cycles,
// and the stop-the-world GC pause distribution (folded from the runtime's
// own histogram into an obs.Histogram by bucket deltas). Returns an
// idempotent stop function. A non-positive interval is a no-op.
//
// The sampler exists for the serving daemons — a fleet operator watching
// /metrics needs to distinguish "the solver is slow" from "the process is
// drowning in GC" without attaching a profiler.
func StartRuntimeSampler(reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	if reg == nil {
		reg = Default()
	}
	gHeap := reg.Gauge("fdiam_runtime_heap_objects_bytes",
		"bytes of live heap objects (runtime/metrics /memory/classes/heap/objects)")
	gGoroutines := reg.Gauge("fdiam_runtime_goroutines",
		"live goroutines")
	cGC := reg.Counter("fdiam_runtime_gc_cycles_total",
		"GC cycles completed since the sampler started")
	// 2^10 ns ≈ 1 µs through 2^30 ns ≈ 1 s covers every plausible pause.
	hPause := reg.Histogram("fdiam_runtime_gc_pause_seconds",
		"stop-the-world GC pause durations",
		HistogramOpts{MinPow: 10, MaxPow: 30, Scale: 1e9})
	// The sampler only runs when self-telemetry was asked for, so its own
	// histogram is armed regardless of the registry-wide arming state.
	hPause.Arm(true)

	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	var prevGC uint64
	var prevPause []uint64
	poll := func() {
		metrics.Read(samples)
		gHeap.Set(int64(samples[0].Value.Uint64()))
		gGoroutines.Set(int64(samples[1].Value.Uint64()))
		gc := samples[2].Value.Uint64()
		if gc > prevGC {
			cGC.Add(int64(gc - prevGC))
		}
		prevGC = gc
		if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
			h := samples[3].Value.Float64Histogram()
			if prevPause == nil {
				prevPause = make([]uint64, len(h.Counts))
				copy(prevPause, h.Counts)
			} else {
				for i, c := range h.Counts {
					if d := c - prevPause[i]; d > 0 && d <= c {
						hPause.ObserveN(pauseBucketNS(h.Buckets, i), int64(d))
					}
					prevPause[i] = c
				}
			}
		}
	}
	poll() // immediate first sample so /metrics is live right after boot

	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				poll()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// pauseBucketNS maps runtime histogram bucket i (bounds in seconds,
// possibly ±Inf at the edges) to a representative nanosecond value for
// re-observation: the bucket's upper bound, falling back to the lower bound
// (doubled) for the +Inf tail.
func pauseBucketNS(buckets []float64, i int) int64 {
	ub := buckets[i+1]
	if !math.IsInf(ub, 0) {
		return int64(ub * 1e9)
	}
	lb := buckets[i]
	if math.IsInf(lb, 0) || lb <= 0 {
		return math.MaxInt64 / 2
	}
	return int64(2 * lb * 1e9)
}
