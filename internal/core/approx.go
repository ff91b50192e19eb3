package core

import (
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// This file implements sampled approximation mode (Options.Approx): a
// budgeted multi-double-sweep estimator in the spirit of
// Magnien–Latapy–Habib, whose corridors are empirically tight after a
// handful of traversals. Each sweep is the exact solver's 2-sweep step
// (sweep) — an eccentricity BFS from a source, then one from the farthest
// vertex it found — with every bound routed through raiseLB/capUB, so the
// corridor is sound by the same arguments as the exact run: the lower bound
// is realized by a witness pair, and ub ≤ min(2·ecc(src), n−1) holds on
// connected graphs by the triangle inequality through src.

// splitmix64 advances state and returns the next value of the SplitMix64
// sequence — the deterministic source sampler for sweeps after the first.
// Inlined rather than imported so core stays free of the generator package.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4b009
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// approxRun executes Options.Approx.Sweeps double sweeps and leaves the
// resulting corridor in the solver's bound state for finish() to report.
// The first sweep starts where the exact run would (the maximum-degree
// vertex, or the first non-isolated one under the StartAtVertexZero
// ablation); later sweeps start from sampled non-isolated vertices,
// preferring ones no earlier sweep computed. The estimator stops early when
// the corridor collapses to gap ≤ max(Epsilon, 0) or the run is cancelled.
func (s *solver) approxRun(firstNonIsolated int) {
	tr := s.opt.Trace
	s.beginStage("approx", obs.I("sweeps", int64(s.opt.Approx.Sweeps)))
	defer func() {
		if tr != nil {
			tr.End("stage", "approx",
				obs.I("bound", int64(s.bound)), obs.I("upper", int64(s.ubCap)))
			s.observeProgress()
		}
	}()
	s.earlyExit = exitApprox

	if s.opt.StartAtVertexZero {
		s.start = graph.Vertex(firstNonIsolated)
	} else {
		s.start = s.g.MaxDegreeVertex()
	}

	// leg is one sweep with its corridor published, reporting the farthest
	// vertex found and whether the run may continue (false on cancellation,
	// including an aborted traversal).
	leg := func(src graph.Vertex) (far graph.Vertex, ok bool) {
		_, far, ok = s.sweep(src, nil)
		if ok {
			s.publishBounds()
		}
		return far, ok && !s.cancelled()
	}

	rng := s.opt.Approx.Seed
	for i := 0; i < s.opt.Approx.Sweeps; i++ {
		src := s.start
		if i > 0 {
			src = s.sampleSource(&rng, firstNonIsolated)
		}
		far, ok := leg(src)
		if !ok {
			return
		}
		if !s.corridorClosed() && far != src {
			if _, ok := leg(far); !ok {
				return
			}
		}
		if s.corridorClosed() {
			break
		}
	}
	if checkedBuild {
		s.checkStateConsistency("approx")
	}
}

// sampleSource draws a non-isolated sweep source from the SplitMix64
// stream, preferring vertices no earlier sweep resolved; after a bounded
// number of rejections it falls back to the first non-isolated vertex
// (always a valid source) so pathological degree distributions cannot stall
// the estimator.
func (s *solver) sampleSource(rng *uint64, firstNonIsolated int) graph.Vertex {
	n := uint64(len(s.ecc))
	fallback := graph.Vertex(firstNonIsolated)
	for attempt := 0; attempt < 64; attempt++ {
		cand := graph.Vertex(splitmix64(rng) % n)
		if s.g.Degree(cand) == 0 {
			continue
		}
		if s.ecc[cand] == Active {
			return cand
		}
		// Already computed by an earlier sweep: usable, but keep looking
		// for a fresh vertex first.
		fallback = cand
	}
	return fallback
}
