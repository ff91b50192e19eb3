package core

import (
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// chains runs Chain Processing (Algorithm 4, §4.3). Every degree-1 vertex x
// anchors a chain: x, followed by zero or more degree-2 vertices, ending at
// the first vertex w whose degree is not 2. With s the chain length,
// every vertex within s steps of w — including w itself — can be removed
// from consideration while only x is kept active:
//
//   - if some other vertex z is also s steps from w, then
//     ecc(w) = ecc(x) − s and, by Theorem 1, nothing within s of w can have
//     a larger eccentricity than x;
//   - otherwise the subgraph rooted at w (excluding the chain) is shallower
//     than s, which makes x the global eccentricity maximum outright.
//
// Either way x dominates the removed ball, and with multiple chains the
// domination argument composes: sequential processing re-activates each
// anchor after its ball is eliminated, so an anchor is left removed only if
// a later ball — whose own anchor dominates it — covered it.
//
// Chain Processing removes no vertex near the graph center, but it tends to
// remove exactly the high-eccentricity periphery vertices that Winnow and
// Eliminate cannot reach (§6.4).
func (s *solver) chains() {
	tr := s.opt.Trace
	s.beginStage("chain")
	t0 := time.Now()
	g := s.g
	n := g.NumVertices()
	// chainDone records, per chain-end vertex, the largest chain length
	// already eliminated around it, so hubs with many degree-1 neighbors
	// are not re-eliminated once per leaf (a star would otherwise cost
	// O(n²); skipping repeats is a pure no-op semantically because
	// Eliminate is idempotent removal). chainMax as the recorded length
	// means the ball exhausted everything reachable around the hub.
	// chainRing keeps each hub ball's outermost freshly-removed ring, so
	// a longer chain arriving later extends the ball incrementally from
	// the ring instead of re-traversing the interior (mirroring
	// extendEliminated's scheme for bound growth).
	chainDone := make(map[graph.Vertex]int32)
	chainRing := make(map[graph.Vertex][]graph.Vertex)
	// recordBall updates that bookkeeping after a chain elimination
	// around hub. complete means the partial BFS reached the full
	// authorized radius: the freshly removed outermost ring is saved as
	// the seed set for a later, longer chain's incremental extension. An
	// incomplete traversal exhausted everything reachable around the hub,
	// so no future chain can remove more — the sentinel blocks all
	// extensions.
	recordBall := func(hub graph.Vertex, length int32, ring []graph.Vertex, complete bool) {
		if !complete {
			chainDone[hub] = chainMax
			delete(chainRing, hub)
			return
		}
		chainDone[hub] = length
		chainRing[hub] = ring
	}
	for v := 0; v < n; v++ {
		if s.cancelled() {
			break
		}
		x := graph.Vertex(v)
		if g.Degree(x) != 1 {
			continue
		}
		// Only chains whose anchor is still under consideration are
		// processed. An anchor already removed (winnowed, or covered
		// by an earlier chain's ball) is dominated by whatever removed
		// it; re-activating it — a literal reading of Algorithm 4
		// line 9 — would undo Winnow's work and force one BFS per
		// pendant vertex, contradicting the paper's reported BFS
		// counts (e.g. 3 traversals on rmat16.sym, which is 5.7%
		// degree-1 vertices).
		if s.ecc[x] != Active {
			continue
		}
		// Follow the chain of degree-2 vertices (forward direction:
		// never step back to the previous vertex).
		prev := x
		cur := g.Neighbors(x)[0]
		length := int32(1)
		for g.Degree(cur) == 2 {
			nb := g.Neighbors(cur)
			next := nb[0]
			if next == prev {
				next = nb[1]
			}
			prev, cur = cur, next
			length++
		}
		// Eliminate everything within `length` steps of the chain end
		// (Algorithm 4 line 8 uses the sentinel pair MAX−len, MAX).
		// A hub with many degree-1 leaves would be re-eliminated once
		// per leaf; since Eliminate is idempotent removal, repeats with
		// a radius not exceeding an earlier one are skipped outright,
		// and a *longer* chain extends the ball incrementally from the
		// saved outermost ring instead of re-traversing the interior
		// (the same scheme extendEliminated uses for bound growth) —
		// a hub with many leaves of increasing chain length would
		// otherwise re-pay the whole smaller ball once per leaf.
		done, seen := chainDone[cur]
		switch {
		case !seen:
			ring, levels := s.eliminateFrom([]graph.Vertex{cur}, chainMax-length, chainMax, StageChain)
			if s.cancelled() {
				// A cancelled partial elimination applied only sound
				// removals, but its ring/level bookkeeping is truncated;
				// drop it and bail out (the caller returns immediately).
				break
			}
			recordBall(cur, length, ring, levels == length)
			// Algorithm 5 never marks its source; remove the chain
			// end explicitly ("we can safely remove all y vertices
			// that have a degree-1 neighbor"). The Active guard stays
			// outside recordBound: sentinel values from different hubs
			// must not "tighten" one another.
			if s.ecc[cur] == Active && s.recordBound(cur, chainMax-length, StageChain) {
				s.stats.RemovedChain++
			}
		case length > done:
			// Seeds sit at distance `done` from the hub; treating them
			// as carrying the value (chainMax−length)+done makes the
			// extension record exactly what a from-scratch elimination
			// of radius `length` would have recorded on the new shells,
			// with limit staying the chain sentinel MAX. An empty saved
			// ring means the previous outermost level added no fresh
			// removals; extension past it could only re-traverse
			// already-removed territory, so it is skipped (removal is
			// an optimization — skipping is always sound).
			ring := chainRing[cur]
			if len(ring) == 0 {
				chainDone[cur] = length
				break
			}
			newRing, levels := s.eliminateFrom(ring, chainMax-length+done, chainMax, StageChain)
			if s.cancelled() {
				break
			}
			recordBall(cur, length, newRing, levels == length-done)
		}
		// Keep the anchor under consideration (Algorithm 4 line 9).
		s.reactivate(x)
	}
	if checkedBuild {
		s.checkStateConsistency("chains")
	}
	s.stats.TimeChain += time.Since(t0)
	if tr != nil {
		tr.End("stage", "chain", obs.I("removed_total", s.stats.RemovedChain))
		s.observeProgress()
	}
}
