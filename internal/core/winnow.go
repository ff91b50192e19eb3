package core

import (
	"time"

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
// to hold. The paper implements it as a partial BFS; here the ball is read
// off s.dist, the start's distances the solver already holds from its
// 2-sweep (or resume) BFS, in one linear scan that runs no traversal. The
// result is the same set of vertices. When the bound grows (§4.5) the scan
// repeats with the larger radius. The call is a no-op when the ball radius
// did not grow, which is why F-Diam only re-winnows when the bound
// increases by at least 2.
func (s *solver) winnow() {
	depth := s.bound / 2
	if depth <= s.winnowDepth {
		return
	}
	s.beginStage("winnow", obs.I("depth", int64(depth)), obs.I("from_depth", int64(s.winnowDepth)))
	t0 := time.Now()
	s.stats.WinnowCalls++
	s.winnowBall(s.dist, depth)
	s.winnowDepth = depth
	if checkedBuild {
		s.checkWinnowBall()
		s.checkStateConsistency("winnow")
	}
	s.stats.TimeWinnow += time.Since(t0)
	if tr := s.opt.Trace; tr != nil {
		tr.End("stage", "winnow", obs.I("removed_total", s.stats.RemovedWinnow))
		s.observeProgress()
	}
}
