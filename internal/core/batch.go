package core

import (
	"time"

	"fdiam/internal/graph"
)

// This file implements the MS-BFS batching of the main loop: instead of
// one direction-optimized BFS per surviving active vertex, the solver
// collects up to 64 of them and advances all 64 traversals with one
// bit-parallel pass over the edges (bfs.MultiSourceRun), then commits the
// results in scan-list order. Committing in order and discarding any source
// an earlier commit's pruning already removed makes the state evolution — the
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

// batchEliminateSeedCutoff is the seed-set size from which the
// multi-source extend-eliminated pass expands its partial BFS under the
// worker pool instead of serially (mirrors the engine's serial cutoff).
const batchEliminateSeedCutoff = 1024

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

// runBatch evaluates the next ≤64 active vertices of the scan list,
// starting at position i, with one MS-BFS and commits the results in list
// order. Returns false when cancellation aborted the traversal or cut a
// commit's step short (the caller breaks the main loop, exactly like a
// cut-short single BFS).
//
// Checkpoint contract: the barrier stays armed across the whole batch, so
// a snapshot taken mid-batch (or the one written on abort) still holds
// every source Active and resumes by redoing the entire batch — sound
// because nothing is committed until the traversal finishes, and the
// resumed run rebuilds the identical scan list from the restored state.
func (s *solver) runBatch(i int) bool {
	sources := s.batchBuf[:0]
	for _, w := range s.order[i:] {
		if len(sources) == 64 {
			break
		}
		if s.ecc[w] == Active {
			sources = append(sources, w)
		}
	}
	s.batchBuf = sources
	tr := s.opt.Trace
	tr.BatchStart(len(sources))
	hBatchSources.Observe(int64(len(sources)))
	s.stats.MSBFSBatches++
	s.stats.MSBFSSources += int64(len(sources))

	tEcc := time.Now()
	s.ck.armed = true
	res := s.e.MultiSourceRun(sources)
	s.ck.armed = false
	s.stats.TimeEcc += time.Since(tEcc)

	if res.Aborted {
		// Each truncated per-source level count still lower-bounds that
		// source's eccentricity; keep the best one, record nothing as
		// exact, and persist the interruption point.
		for i := range sources {
			s.raiseLB(res.Ecc[i], sources[i], res.Witness[i])
		}
		if tr != nil {
			tr.Instant("run", "cancelled")
		}
		s.writeCheckpoint()
		return false
	}
	if checkedBuild {
		s.checkBatchEcc(sources, res.Ecc, res.Witness)
	}

	committed, discarded := 0, 0
	stopped := false
	for i, src := range sources {
		// ε-early-exit inside the batch: once the corridor is within
		// tolerance the remaining sources' results are discarded without
		// being committed (sound — they were never recorded), and the
		// main loop's own check stops the run at its next iteration.
		if s.epsilonReached() {
			stopped = true
			break
		}
		if s.ecc[src] != Active {
			// An earlier commit's winnow/eliminate already removed this
			// source: its batch slot is wasted work, never state.
			discarded++
			s.stats.MSBFSDiscarded++
			continue
		}
		committed++
		s.ck.calls++
		vecc := res.Ecc[i]
		s.stats.EccBFS++
		before := s.removedTotal()
		s.setComputed(src, vecc)
		switch {
		case vecc > s.bound:
			old := s.improveBound(vecc, src, res.Witness[i])
			if !s.opt.DisableWinnow {
				s.winnow()
			}
			if !s.opt.DisableEliminate {
				tEl := time.Now()
				s.extendEliminated(old)
				s.stats.TimeEliminate += time.Since(tEl)
			}
		case vecc < s.bound && !s.opt.DisableEliminate:
			tEl := time.Now()
			s.eliminateFrom([]graph.Vertex{src}, vecc, s.bound, StageEliminate)
			s.stats.TimeEliminate += time.Since(tEl)
		}
		if s.cancelled() {
			// As in the single-BFS loop: src's step may be cut short, so
			// keep the previous snapshot, which redoes the whole batch.
			return false
		}
		s.notePruning(s.removedTotal() - before)
		s.observeProgress()
	}
	tr.BatchDone(committed, discarded)
	if !stopped {
		// An ε-stop leaves uncommitted sources Active; the main loop's
		// exit path writes that snapshot instead.
		s.ckptAfterVertex()
	}
	return true
}
