package obs_test

import (
	"testing"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/obs"
)

// TestNilRunIsAllocationFree pins the contract the hot paths rely on: with
// tracing disabled (nil *Run), the typed per-traversal and per-level methods
// compile down to a nil check and must never allocate. The variadic
// Begin/End/Instant methods are excluded on purpose — their call sites in
// internal/core are nil-guarded instead, because building a variadic arg
// slice can allocate before the receiver is even examined.
func TestNilRunIsAllocationFree(t *testing.T) {
	var r *obs.Run
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		r.TraversalStart("ecc", 1)
		r.LevelDone(3, obs.StepTopDownSerial, 128, 4096, 10_000, start)
		r.DirSwitch(4, true)
		r.BoundImproved(10, 12, 7)
		r.TraversalEnd(12, 100_000, 2)
		r.SetVertices(100_000)
		r.SetActive(5_000)
		r.Snapshot()
		r.Finish()
	})
	if allocs != 0 {
		t.Errorf("nil-tracer hot path allocates %.1f times per run, want 0", allocs)
	}
}

// TestNilTraceSolverPath runs the full solver with Options.Trace == nil and
// a tracer attached, checking both agree — the nil path must not change
// results, only skip emission.
func TestNilTraceSolverPath(t *testing.T) {
	g := traceGraph()
	plain := core.Diameter(g, core.Options{Workers: 1})
	run := obs.NewRun(obs.Config{})
	traced := core.Diameter(g, core.Options{Workers: 1, Trace: run})
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if plain.Diameter != traced.Diameter || plain.Infinite != traced.Infinite {
		t.Errorf("traced run diverged: plain=%+v traced=%+v", plain, traced)
	}
	if plain.Stats.EccBFS != traced.Stats.EccBFS ||
		plain.Stats.RemovedWinnow != traced.Stats.RemovedWinnow ||
		plain.Stats.RemovedChain != traced.Stats.RemovedChain {
		t.Errorf("tracing changed the algorithm: plain=%s traced=%s",
			plain.Stats.String(), traced.Stats.String())
	}
}

// TestDisarmedHistogramIsAllocationFree pins the "zero-cost when off"
// contract of the telemetry histograms: a disarmed Observe is one atomic
// load, StartTimer skips the clock read entirely, and PublishBounds on a
// nil run is a nil check. These run on the solver's per-level and per-batch
// paths, so an allocation here is a hot-path regression.
func TestDisarmedHistogramIsAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("alloc_test_seconds", "disarmed hot-path histogram", obs.HistogramOpts{})
	var nilRun *obs.Run
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		start := h.StartTimer()
		h.ObserveSince(start)
		nilRun.PublishBounds(1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Errorf("disarmed histogram path allocates %.1f times per run, want 0", allocs)
	}
}

// TestArmedHistogramRecordIsAllocationFree: arming may cost atomics and a
// clock read, but never an allocation.
func TestArmedHistogramRecordIsAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("alloc_armed_seconds", "armed hot-path histogram", obs.HistogramOpts{})
	h.Arm(true)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
		start := h.StartTimer()
		h.ObserveSince(start)
	})
	if allocs != 0 {
		t.Errorf("armed histogram record allocates %.1f times per run, want 0", allocs)
	}
}
