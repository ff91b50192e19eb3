package core

import (
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// winnow removes every vertex within ⌊bound/2⌋ steps of the starting vertex
// from consideration (Algorithm 3). By Theorem 3 no eccentricity is below
// half the diameter, and by Theorem 2 at least two vertices attain the
// diameter, so if a pair farther apart than the current bound exists, at
// least one endpoint lies outside the ball — winnowing the ball is safe even
// though it may discard vertices whose eccentricity exceeds the bound.
//
// Winnowing must be centered at a single vertex for the Theorem 2 argument
// to hold; when the bound grows, the ball is extended incrementally from
// the saved frontier instead of being re-traversed (§4.5). The call is a
// no-op when the ball radius did not grow, which is why F-Diam only
// re-winnows when the bound increases by at least 2.
func (s *solver) winnow() {
	depth := s.bound / 2
	first := s.winnowFrontier == nil
	if !first && depth <= s.winnowDepth {
		return
	}
	tr := s.opt.Trace
	s.beginStage("winnow", obs.I("depth", int64(depth)), obs.I("from_depth", int64(s.winnowDepth)))
	t0 := time.Now()
	s.stats.WinnowCalls++

	var seeds []graph.Vertex
	var levels int32
	var skip func(graph.Vertex) bool
	if first {
		seeds = []graph.Vertex{s.start}
		levels = depth
	} else {
		// Resume from the saved frontier (vertices at exactly
		// winnowDepth steps from start). Skipping already-winnowed
		// vertices is exact: a shortest path from the old frontier to
		// any vertex beyond it never re-enters the ball interior.
		seeds = s.winnowFrontier
		levels = depth - s.winnowDepth
		skip = func(v graph.Vertex) bool { return s.ecc[v] == Winnowed }
	}

	workers := s.e.Workers()
	parallel := workers > 1
	s.e.Partial(seeds, levels, parallel, skip, func(level int32, frontier []graph.Vertex) {
		s.markWinnowed(frontier, workers)
	})

	if s.e.Aborted() {
		// Every level reported before the abort was exact, so all marks
		// applied are inside the authorized ball — but the traversal did
		// not reach the full radius, so the saved frontier/depth pair
		// must not advance: the caller returns immediately and a
		// hypothetical later extension would resume from the old ring.
		s.stats.TimeWinnow += time.Since(t0)
		if tr != nil {
			tr.End("stage", "winnow", obs.I("removed_total", s.stats.RemovedWinnow))
			s.observeProgress()
		}
		return
	}

	// LastFrontier always contains at least the seeds, so winnowFrontier
	// becomes non-nil here, which is what marks the first call as done.
	s.winnowFrontier = append(s.winnowFrontier[:0], s.e.LastFrontier()...)
	s.winnowDepth = depth
	if checkedBuild {
		s.checkWinnowBall()
		s.checkStateConsistency("winnow")
	}
	s.stats.TimeWinnow += time.Since(t0)
	if tr != nil {
		tr.End("stage", "winnow", obs.I("removed_total", s.stats.RemovedWinnow))
		s.observeProgress()
	}
}
