package core

import (
	"time"

	"fdiam/internal/bfs"
	"fdiam/internal/graph"
)

// This file implements the main loop's evaluation step and its MS-BFS
// batching: instead of one direction-optimized BFS per surviving active
// vertex, the solver may collect up to 64 of them and advance all 64
// traversals with one bit-parallel pass over the edges
// (bfs.MultiSourceRun). Either way the results go through one commit path
// in scan-list order. Committing in order and discarding any source an
// earlier commit's pruning already removed makes the state evolution — the
// bound trajectory, every removal, every Stats counter above the MSBFS_*
// group — exactly identical to the unbatched loop (DESIGN.md §11).

// batchMaxBound is the diameter-bound ceiling of the cost model. A
// 64-source batch costs roughly levels × (active arc volume) word-ops,
// and the number of levels is at least the largest source eccentricity —
// which the current bound predicts. With fewer levels than bit-lanes the
// shared frontier words amortize across sources and the batch beats even
// direction-optimized singles (measured on the solve-lowdiam social
// stand-ins, bound 21, 2-core VM: solves with batching are 1.3–9× faster
// than without); with hundreds of levels (road networks, grids)
// the spread-out frontiers share nothing and the batch loses outright.
// Capping at the lane count is the natural break-even.
const batchMaxBound = 64

// Cost-model parameters (DESIGN.md §11).
const (
	// batchMinActive is the remaining-active-vertex floor below which the
	// main loop stays single-BFS: with only a handful of survivors left,
	// the fixed per-batch cost (a traversal that must carry the whole
	// graph's frontier words) cannot amortize over the few sources that
	// would fill it.
	batchMinActive = 16

	// batchMaxPrune is the ceiling on the recent removals-per-evaluation
	// average (EWMA) above which batching stays off: while each
	// eccentricity still prunes many vertices, batch sources collected
	// ahead of time would mostly be discarded.
	batchMaxPrune = 16.0
)

// batchMode is the test-only override of the cost model (Options.batch).
type batchMode uint8

const (
	batchAuto   batchMode = iota // the cost model decides
	batchNever                   // every evaluation is a single BFS
	batchAlways                  // batch whenever an active vertex remains
)

// batchEligible is the cost model (DESIGN.md §11): batch when enough
// active vertices remain for a batch to amortize, the recent pruning rate
// is low (each evaluation mostly just confirms the bound, so sources
// collected ahead of time survive to commit), and the diameter bound is
// small enough that the batch's level count stays under the lane count.
// The EWMA gate doubles as a warm-up: it stays at its -1 sentinel until
// the first single evaluation seeds it, so every main loop starts
// unbatched.
func (s *solver) batchEligible() bool {
	switch s.opt.batch {
	case batchNever:
		return false
	case batchAlways:
		return true
	}
	if s.activeRemaining() < batchMinActive {
		return false
	}
	if s.bound > batchMaxBound {
		return false
	}
	return s.pruneEWMA >= 0 && s.pruneEWMA <= batchMaxPrune
}

// activeRemaining is the main-loop workload measure: vertices neither
// removed by any stage nor already computed.
func (s *solver) activeRemaining() int64 {
	return int64(s.stats.Vertices) - s.removedTotal()
}

// removedTotal sums every removal attribution (including computed
// vertices); deltas of it measure how much pruning one evaluation caused.
func (s *solver) removedTotal() int64 {
	return s.stats.RemovedDegree0 + s.stats.RemovedWinnow + s.stats.RemovedChain +
		s.stats.RemovedEliminate + s.stats.Computed
}

// notePruning feeds one evaluation's removal delta into the EWMA the cost
// model consults (initialized lazily from the first sample).
func (s *solver) notePruning(delta int64) {
	d := float64(delta)
	if s.pruneEWMA < 0 {
		s.pruneEWMA = d
		return
	}
	s.pruneEWMA = 0.75*s.pruneEWMA + 0.25*d
}

// evaluate is the main loop's evaluation step at scan position i, whose
// vertex is Active: one eccentricity BFS from it — or, when batchEligible
// holds, one MS-BFS from it and the next Active vertices of the scan list,
// up to 64 sources — and then one commit of the results in list order.
// Returns false when cancellation aborted the traversal or cut a commit's
// step short (the caller breaks the main loop).
//
// Checkpoint contract: the barrier stays armed across the whole traversal,
// so a snapshot taken inside it (or the one written on abort) still holds
// every source Active and resumes by redoing all of them — sound because
// nothing is committed until the traversal finishes, and the resumed run
// rebuilds the identical scan list from the restored state.
func (s *solver) evaluate(i int) bool {
	tr := s.opt.Trace
	sources := append(s.batchBuf[:0], s.order[i])
	batched := s.batchEligible()
	if batched {
		for _, w := range s.order[i+1:] {
			if len(sources) == 64 {
				break
			}
			if s.ecc[w] == Active {
				sources = append(sources, w)
			}
		}
		tr.BatchStart(len(sources))
		hBatchSources.Observe(int64(len(sources)))
		s.stats.MSBFSBatches++
		s.stats.MSBFSSources += int64(len(sources))
	}
	s.batchBuf = sources

	// A single BFS reports in the batch's shape: its witness is the
	// lowest-id vertex of the last level, the one MS-BFS reports.
	var res bfs.MultiSourceResult
	tEcc := time.Now()
	s.ck.armed = true
	if batched {
		res = s.e.MultiSourceRun(sources)
	} else {
		ecc := s.e.Eccentricity(sources[0])
		res = bfs.MultiSourceResult{
			Ecc:     []int32{ecc},
			Witness: []graph.Vertex{sweepPartner(s.e.LastFrontier())},
			Aborted: s.e.Aborted(),
		}
	}
	s.ck.armed = false
	s.stats.TimeEcc += time.Since(tEcc)

	if res.Aborted {
		// Each truncated level count still lower-bounds its source's
		// eccentricity; keep the best one, record nothing as exact, and
		// persist the interruption point.
		for k, src := range sources {
			s.raiseLB(res.Ecc[k], src, res.Witness[k])
		}
		s.stopCancelled()
		return false
	}
	if checkedBuild {
		for k, src := range sources {
			s.checkEcc(src, res.Ecc[k], res.Witness[k])
		}
	}

	committed, discarded := 0, 0
	stopped := false
	for k, src := range sources {
		// ε-early-exit inside a batch: once the corridor is within
		// tolerance the remaining sources' results are discarded without
		// being committed (sound — they were never recorded), and the
		// main loop's own check stops the run at its next iteration.
		if s.epsilonReached() {
			stopped = true
			break
		}
		if s.ecc[src] != Active {
			// An earlier commit's winnow/eliminate already removed this
			// batch source: its lane is wasted work, never state. (A single
			// source is never discarded: it was Active when the loop chose
			// it.)
			discarded++
			s.stats.MSBFSDiscarded++
			continue
		}
		committed++
		s.ck.calls++
		s.stats.EccBFS++
		ecc := res.Ecc[k]
		before := s.removedTotal()
		s.setComputed(src, ecc)
		switch {
		case ecc > s.bound:
			// New lower bound for the diameter: extend the winnow ball and
			// all prior eliminated regions (§4.5).
			old := s.improveBound(ecc, src, res.Witness[k])
			if !s.opt.DisableWinnow {
				s.winnow()
			}
			if !s.opt.DisableEliminate {
				tEl := time.Now()
				s.extendEliminated(old)
				s.stats.TimeEliminate += time.Since(tEl)
			}
		case ecc < s.bound && !s.opt.DisableEliminate:
			// Theorem 1: everything within bound−ecc(src) of src cannot
			// beat the bound (§4.4).
			tEl := time.Now()
			s.eliminateFrom([]graph.Vertex{src}, ecc, s.bound, StageEliminate)
			s.stats.TimeEliminate += time.Since(tEl)
		default:
			// ecc == bound: only src itself is removed (already done by
			// setComputed).
		}
		if s.cancelled() {
			// The cancel may have cut src's Winnow/Eliminate step short, so
			// no snapshot may record src as computed: keep the previous
			// one, which resumes by redoing every source of this step.
			return false
		}
		// Cost-model feedback: this evaluation's pruning yield.
		s.notePruning(s.removedTotal() - before)
		s.observeProgress()
	}
	if batched {
		tr.BatchDone(committed, discarded)
	}
	if !stopped {
		// An ε-stop leaves uncommitted sources Active; the main loop's
		// exit path writes that snapshot instead.
		s.ckptAfterVertex()
	}
	return true
}

// stopCancelled records a cancellation that stops the main loop: the
// trace's cancelled instant, and a snapshot of the interruption point so a
// later run resumes here instead of starting over (no-op without a
// checkpoint dir).
func (s *solver) stopCancelled() {
	if tr := s.opt.Trace; tr != nil {
		tr.Instant("run", "cancelled")
	}
	s.writeCheckpoint()
}
