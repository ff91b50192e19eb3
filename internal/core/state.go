// Package core implements the F-Diam algorithm (Algorithms 1–5 of the
// paper): the 2-sweep initial bound, the novel Winnowing and Chain
// Processing techniques, the Eliminate operation, incremental extension of
// winnowed/eliminated regions, and the main loop that drives the remaining
// eccentricity computations.
package core

import (
	"math"

	"fdiam/internal/graph"
	"fdiam/internal/par"
)

// Vertex-state encoding, stored in one int32 per vertex (the paper's
// per-vertex "ecc" field). Any value below Active means the vertex has been
// removed from consideration; removal never deletes the vertex from the
// graph — it only means its eccentricity need not be computed (paper
// footnote 1).
const (
	// Active marks a vertex whose eccentricity may still need computing.
	// The paper uses INT_MAX for this role ("F-Diam treats vertices with
	// eccentricities less than INT_MAX as having been removed").
	Active int32 = math.MaxInt32

	// Winnowed marks a vertex discarded by the Winnow operation. Unlike
	// eliminated vertices it carries no eccentricity upper bound (none is
	// known — winnowing can even discard vertices whose eccentricity
	// exceeds the current bound, which is the key novelty of Theorem 2).
	Winnowed int32 = -1

	// chainMax is the paper's MAX = INT_MAX − 1 used by Chain Processing
	// (Algorithm 4): the chain's end vertex is eliminated with the
	// sentinel bound pair (MAX − len, MAX), which removes everything
	// within len steps without asserting a meaningful numeric bound.
	chainMax int32 = math.MaxInt32 - 1
)

// Stage attributes each vertex removal to the technique responsible, which
// the paper reports in Table 4.
type Stage uint8

// Removal attributions, in Table 4 column order.
const (
	StageActive    Stage = iota // still under consideration
	StageDegree0                // isolated vertex, ecc = 0, no BFS needed
	StageWinnow                 // removed by Winnow (§4.2)
	StageChain                  // removed by Chain Processing (§4.3)
	StageEliminate              // removed by Eliminate (§4.4) or region extension (§4.5)
	StageComputed               // eccentricity computed explicitly via BFS
	numStages
)

// String implements fmt.Stringer for diagnostics.
func (s Stage) String() string {
	switch s {
	case StageActive:
		return "active"
	case StageDegree0:
		return "degree-0"
	case StageWinnow:
		return "winnow"
	case StageChain:
		return "chain"
	case StageEliminate:
		return "eliminate"
	case StageComputed:
		return "computed"
	default:
		return "invalid"
	}
}

// ---------------------------------------------------------------------------
// Monotone setters.
//
// Every mutation of the solver's bound state — the ecc/stage vertex arrays,
// the diameter lower bound, and the ubCap upper bound — goes through the
// functions below, each marked //fdiam:boundsetter. The boundmono analyzer
// rejects writes anywhere else at lint time, turning the fdiam.checked
// runtime barrier (invariant.go's checkRecord) into a compile-time
// guarantee: the paper's exactness argument needs the lower bound to only
// rise, the upper bound to only fall, and a vertex's record to only move
// Active → resolved (or tighten), and with the writes confined here the
// monotone contract is enforced and reviewed in one place.
// ---------------------------------------------------------------------------

// initVertexState allocates the per-vertex state arrays with every vertex
// Active. Initialization, not evolution: it runs once before any bound
// exists.
//
//fdiam:boundsetter
func (s *solver) initVertexState(n, workers int) {
	s.ecc = make([]int32, n)
	s.stage = make([]Stage, n)
	par.ForWorker(n, workers, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.ecc[i] = Active
		}
	})
}

// markIsolated records a degree-0 vertex: eccentricity exactly 0, no BFS
// needed (Table 4's last column).
//
//fdiam:boundsetter
func (s *solver) markIsolated(v graph.Vertex) {
	s.ecc[v] = 0
	s.stage[v] = StageDegree0
	s.stats.RemovedDegree0++
}

// setComputed records an exactly computed eccentricity, which also removes
// the vertex from consideration (any write below Active does, per §4).
//
//fdiam:boundsetter
func (s *solver) setComputed(v graph.Vertex, ecc int32) {
	if checkedBuild {
		s.checkComputeTarget(v)
	}
	s.ecc[v] = ecc
	s.stage[v] = StageComputed
	s.stats.Computed++
}

// recordBound applies the Eliminate/Chain write policy to one vertex: an
// Active vertex is removed with upper bound val and attributed to attr
// (reported true — the caller owns ring membership and stage counters); an
// already-removed vertex keeps its state except that a strictly tighter
// numeric bound replaces a looser one. Winnowed vertices keep their
// sentinel, and exactly computed eccentricities can never be "tightened"
// because every recorded bound is ≥ the true eccentricity.
//
//fdiam:boundsetter
func (s *solver) recordBound(v graph.Vertex, val int32, attr Stage) (removed bool) {
	switch cur := s.ecc[v]; {
	case cur == Active:
		if checkedBuild {
			s.checkRecord(v, cur, val)
		}
		s.ecc[v] = val
		s.stage[v] = attr
		return true
	case cur != Winnowed && val < cur:
		if checkedBuild {
			s.checkRecord(v, cur, val)
		}
		s.ecc[v] = val
	}
	return false
}

// winnowBall removes every Active vertex v with 1 ≤ dist[v] ≤ depth: the
// Winnow ball around dist's source, minus the source itself. Vertices that
// already carry information (a computed eccentricity or an Eliminate upper
// bound) keep it — they are removed either way, and the recorded value may
// still seed a later region extension. Unreached vertices (dist −1) lie
// outside every ball.
//
//fdiam:hotpath
//fdiam:boundsetter
func (s *solver) winnowBall(dist []int32, depth int32) {
	for v, d := range dist {
		if d >= 1 && d <= depth && s.ecc[v] == Active {
			s.ecc[v] = Winnowed
			s.stage[v] = StageWinnow
			s.stats.RemovedWinnow++
		}
	}
}

// reactivate puts a vertex back under consideration, undoing the removal
// bookkeeping. Chain Processing uses it to keep chain anchors active
// (Algorithm 4 line 9). Vertices whose exact eccentricity is already known
// stay removed — their value is already reflected in the bound.
//
//fdiam:boundsetter
func (s *solver) reactivate(v graph.Vertex) {
	switch s.stage[v] {
	case StageWinnow:
		s.stats.RemovedWinnow--
	case StageChain:
		s.stats.RemovedChain--
	case StageEliminate:
		s.stats.RemovedEliminate--
	default:
		return // active, computed, or degree-0: nothing to undo
	}
	s.ecc[v] = Active
	s.stage[v] = StageActive
}

// raiseLB raises the diameter lower bound to val with (a, b) as its
// witness pair, and reports whether it did. The bound only moves up; the
// sole exception is the very first write (no witness yet), which installs
// the 2-sweep's initial bound unconditionally.
//
//fdiam:boundsetter
func (s *solver) raiseLB(val int32, a, b graph.Vertex) bool {
	if val > s.bound || s.witnessA == graph.NoVertex {
		s.bound = val
		s.witnessA, s.witnessB = a, b
		return true
	}
	return false
}

// capUB lowers the proven diameter upper bound to val. The cap only moves
// down once established (-1 means "none yet").
//
//fdiam:boundsetter
func (s *solver) capUB(val int32) {
	if s.ubCap < 0 || val < s.ubCap {
		s.ubCap = val
	}
}

// restoreVertexState installs a validated checkpoint snapshot's vertex
// arrays and lower bound. The snapshot was captured at a main-loop
// boundary of a previous process under these same setters, so monotonicity
// holds across the restore (the checked build re-verifies the restored
// state wholesale).
//
//fdiam:boundsetter
func (s *solver) restoreVertexState(ecc []int32, stage []uint8, bound int32) {
	copy(s.ecc, ecc)
	for i, st := range stage {
		s.stage[i] = Stage(st)
	}
	s.bound = bound
}
