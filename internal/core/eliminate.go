package core

import (
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// eliminateFrom is the Eliminate operation (Algorithm 5), generalized to
// multiple sources so the eliminated-region extension of §4.5 is a single
// multi-source partial BFS. Vertices at distance k from the seed set are
// removed from consideration with the recorded upper bound startVal + k,
// for k = 1 .. limit − startVal. The recorded bound is what later lets the
// region be extended when the diameter bound grows: extension seeds are
// exactly the vertices whose recorded value equals the old bound (the
// outermost ring of each region).
//
// Eliminate runs serially: its worklists are typically tiny (§4.4), and the
// multi-source extension is partial by construction.
//
// Write policy: recordBound (state.go) — an Active vertex is removed and
// attributed to attr; an already-removed vertex keeps its state except
// that a *tighter* numeric upper bound replaces a looser one.
//
// Returns the vertices freshly removed at the deepest completed level —
// the outermost ring of newly claimed territory, which Chain Processing
// uses to extend a hub's ball incrementally — and the number of levels the
// traversal completed. levels < limit−startVal means the partial BFS
// exhausted everything reachable from the seed set (or was cancelled);
// the returned ring slice is freshly allocated and owned by the caller.
func (s *solver) eliminateFrom(seeds []graph.Vertex, startVal, limit int32, attr Stage) (ring []graph.Vertex, levels int32) {
	if startVal >= limit || len(seeds) == 0 {
		return nil, 0
	}
	s.stats.EliminateCalls++
	var checkDist []int32
	if checkedBuild {
		checkDist = s.checkEliminatePre(seeds, startVal, limit, attr)
	}
	tr := s.opt.Trace
	if tr != nil {
		tr.Begin("stage", "eliminate",
			obs.I("seeds", int64(len(seeds))), obs.I("radius", int64(limit-startVal)))
	}
	levels = s.e.Partial(seeds, limit-startVal, func(level int32, frontier []graph.Vertex) {
		if checkedBuild {
			s.checkEliminateLevel(checkDist, level, frontier, startVal, limit)
		}
		s.stats.EliminateVisited += int64(len(frontier))
		ring = ring[:0]
		val := startVal + level
		for _, v := range frontier {
			if s.recordBound(v, val, attr) {
				ring = append(ring, v)
				switch attr {
				case StageChain:
					s.stats.RemovedChain++
				default:
					s.stats.RemovedEliminate++
				}
			}
		}
	})
	if tr != nil {
		// Report the counter matching the attribution, so chain removals
		// show up as chain removals in Chrome traces.
		removed := s.stats.RemovedEliminate
		if attr == StageChain {
			removed = s.stats.RemovedChain
		}
		tr.End("stage", "eliminate", obs.I("removed_total", removed))
	}
	return ring, levels
}

// extendEliminated grows all previously eliminated regions after the bound
// improved from old to s.bound (§4.5): instead of re-running Eliminate from
// every previously evaluated vertex, one multi-source partial BFS starts
// from every vertex whose recorded value equals the old bound — the
// outermost ring of every region — and advances bound − old levels.
func (s *solver) extendEliminated(old int32) {
	var seeds []graph.Vertex
	for v := 0; v < len(s.ecc); v++ {
		if s.ecc[v] == old {
			seeds = append(seeds, graph.Vertex(v))
		}
	}
	s.eliminateFrom(seeds, old, s.bound, StageEliminate)
}
