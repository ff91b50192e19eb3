//go:build fdiam.checked

package core

import (
	"fmt"
	"slices"

	"fdiam/internal/baseline"
	"fdiam/internal/graph"
)

// This file is the checked build mode: `go test -tags fdiam.checked` (or
// any build with that tag) makes Winnow, Eliminate, Chain Processing and
// the final result assert the paper-theorem invariants their exactness
// rests on, at the cost of one independent BFS per checked operation.
// DESIGN.md §8 catalogs which theorem each assertion encodes. The
// counterpart invariant_off.go compiles the same entry points to nothing.

// checkedBuild gates every assertion call site; the constant lets the
// compiler delete the checks entirely in normal builds.
const checkedBuild = true

// checkedDiffMaxN caps the O(n·(n+m)) differential checks (the final
// diameter cross-check against internal/baseline, and the per-vertex
// upper-bound audit). Structural O(n+m) assertions always run.
const checkedDiffMaxN = 1024

// InvariantViolation is the panic payload of a failed checked-mode
// assertion, carrying which invariant broke and the offending detail.
type InvariantViolation struct {
	Invariant string
	Detail    string
}

func (v *InvariantViolation) Error() string {
	return "fdiam checked invariant violated [" + v.Invariant + "]: " + v.Detail
}

func violate(invariant, format string, args ...any) {
	panic(&InvariantViolation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// checkedDistances runs an independent multi-source BFS (plain queue, no
// shared engine state) and returns hop distances from the seed set, -1 for
// unreachable vertices. All assertions measure against this, never against
// the engine under test.
func (s *solver) checkedDistances(seeds []graph.Vertex) []int32 {
	dist := make([]int32, len(s.ecc))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.Vertex, 0, len(seeds))
	for _, sd := range seeds {
		if dist[sd] == -1 {
			dist[sd] = 0
			queue = append(queue, sd)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v] + 1
		for _, nb := range s.g.Neighbors(v) {
			if dist[nb] == -1 {
				dist[nb] = d
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// checkWinnowBall encodes Theorems 2+3 (§4.2): winnowing is only sound for
// a ball of radius ⌊bound/2⌋ centered at the single starting vertex. Every
// vertex Winnow removed must lie inside that ball of s.start; the distance
// array Winnow reads the ball off must be the start's true distances; and
// no Active vertex may be left inside the ball, which is what makes the
// scan equal to the paper's partial BFS.
func (s *solver) checkWinnowBall() {
	dist := s.checkedDistances([]graph.Vertex{s.start})
	depth := s.bound / 2
	if s.winnowDepth != depth {
		violate("winnow-radius", "winnowDepth %d != bound/2 = %d", s.winnowDepth, depth)
	}
	for v := range s.stage {
		if s.stage[v] != StageWinnow {
			continue
		}
		if dist[v] < 0 || dist[v] > depth {
			violate("winnow-ball",
				"vertex %d winnowed but dist(start=%d, v)=%d outside ball radius %d",
				v, s.start, dist[v], depth)
		}
	}
	if len(s.dist) != len(dist) {
		violate("winnow-dist", "distance array holds %d entries, graph has %d vertices", len(s.dist), len(dist))
	}
	for v, d := range dist {
		if s.dist[v] != d {
			violate("winnow-dist", "dist[%d] = %d, but dist(start=%d, v) = %d", v, s.dist[v], s.start, d)
		}
		if d >= 1 && d <= depth && s.ecc[v] == Active {
			violate("winnow-dist", "vertex %d still Active at dist %d inside ball radius %d", v, d, depth)
		}
	}
}

// checkEliminatePre validates an Eliminate call's preconditions (Theorem 1,
// §4.4): for a numeric elimination the radius limit−startVal may not exceed
// bound−ecc(seed) — i.e. limit stays within the current bound and every
// seed carries a sound recorded value ≤ startVal. Chain Processing's
// sentinel pair (MAX−len, MAX) is exempt from the numeric argument (its
// soundness is the §4.3 domination argument) but must use the sentinel
// limit exactly. Returns independent distances from the seed set for the
// per-level check.
func (s *solver) checkEliminatePre(seeds []graph.Vertex, startVal, limit int32, attr Stage) []int32 {
	switch attr {
	case StageChain:
		if limit != chainMax {
			violate("chain-sentinel", "chain elimination limit %d != MAX %d", limit, chainMax)
		}
	default:
		if limit > s.bound {
			violate("eliminate-radius",
				"limit %d exceeds current bound %d (radius %d > bound-ecc %d)",
				limit, s.bound, limit-startVal, s.bound-startVal)
		}
		for _, sd := range seeds {
			if cur := s.ecc[sd]; cur == Active || cur == Winnowed || cur > startVal {
				violate("eliminate-seed",
					"seed %d has state %d, need recorded value ≤ startVal %d", sd, cur, startVal)
			}
		}
	}
	return s.checkedDistances(seeds)
}

// checkEliminateLevel verifies, against the independent distances, that
// the engine's level-k frontier is exactly distance k from the seed set —
// the property that makes the recorded bound startVal+k sound (Theorem 1:
// ecc(x) ≤ ecc(v) + d(v,x)) — and that the radius never exceeds the
// authorized limit.
func (s *solver) checkEliminateLevel(dist []int32, level int32, frontier []graph.Vertex, startVal, limit int32) {
	if startVal+level > limit {
		violate("eliminate-radius", "level %d exceeds radius %d", level, limit-startVal)
	}
	for _, v := range frontier {
		if dist[v] != level {
			violate("eliminate-level",
				"vertex %d reported at level %d but independent BFS says dist %d",
				v, level, dist[v])
		}
	}
}

// checkRecord is the write barrier for the per-vertex state array: a
// recorded upper bound may replace Active or tighten (strictly decrease) a
// previous numeric bound, and may never touch a winnowed sentinel, an
// exact eccentricity, or a degree-0 vertex — tightening below an exact
// value would contradict the triangle inequality behind Theorem 1.
func (s *solver) checkRecord(v graph.Vertex, cur, val int32) {
	if val < 0 {
		violate("record-range", "vertex %d: recorded bound %d negative", v, val)
	}
	if cur == Winnowed {
		violate("record-monotone", "vertex %d: write %d over winnowed sentinel", v, val)
	}
	if cur != Active {
		if val >= cur {
			violate("record-monotone", "vertex %d: bound raised %d -> %d", v, cur, val)
		}
		if st := s.stage[v]; st == StageComputed || st == StageDegree0 {
			violate("record-monotone",
				"vertex %d: tightening %d -> %d below an exact eccentricity (stage %v)",
				v, cur, val, st)
		}
	}
}

// checkEcc cross-checks an eccentricity the solver is about to record —
// from a sweep, a single main-loop BFS or a lane of an MS-BFS batch — and
// the witness that comes with it against an independent BFS (capped like
// the other differential checks): the direction-optimized and bit-parallel
// kernels share buffers, frontier words and level bookkeeping, so a bug
// there corrupts exactly these values. The witness must be the lowest-id
// vertex at distance ecc from src, the contract that makes it independent
// of kernel order and worker count.
func (s *solver) checkEcc(src graph.Vertex, ecc int32, wit graph.Vertex) {
	if len(s.ecc) > checkedDiffMaxN {
		return
	}
	dist := s.checkedDistances([]graph.Vertex{src})
	want := slices.Max(dist)
	lowest := graph.Vertex(slices.Index(dist, want))
	if ecc != want {
		violate("ecc-differential",
			"source %d: eccentricity %d != independent BFS %d", src, ecc, want)
	}
	if wit != lowest {
		violate("ecc-witness",
			"source %d: witness %d, want %d, the lowest id at distance %d",
			src, wit, lowest, want)
	}
}

// checkComputeTarget asserts the main loop and 2-sweep only compute
// eccentricities of vertices still under consideration.
func (s *solver) checkComputeTarget(v graph.Vertex) {
	if s.ecc[v] != Active {
		violate("compute-active", "computing eccentricity of removed vertex %d (state %d)", v, s.ecc[v])
	}
}

// stageCounts tallies the stage attribution array.
func (s *solver) stageCounts() [numStages]int64 {
	var counts [numStages]int64
	for _, st := range s.stage {
		counts[st]++
	}
	return counts
}

// checkStateConsistency cross-checks the two per-vertex arrays against
// each other and against the Stats accounting (the Table 4 bookkeeping
// reactivate/markWinnowed/eliminate all mutate): every stage value must
// agree with the ecc encoding, and every removal counter must equal the
// number of vertices attributed to it.
func (s *solver) checkStateConsistency(where string) {
	n := int32(len(s.ecc))
	for v, st := range s.stage {
		ecc := s.ecc[v]
		switch st {
		case StageActive:
			if ecc != Active {
				violate("state-encoding", "%s: vertex %d StageActive but ecc %d", where, v, ecc)
			}
		case StageWinnow:
			if ecc != Winnowed {
				violate("state-encoding", "%s: vertex %d StageWinnow but ecc %d", where, v, ecc)
			}
		case StageDegree0:
			if ecc != 0 {
				violate("state-encoding", "%s: vertex %d StageDegree0 but ecc %d", where, v, ecc)
			}
		case StageComputed:
			if ecc < 0 || ecc >= n {
				violate("state-encoding", "%s: vertex %d computed ecc %d out of [0, n)", where, v, ecc)
			}
		case StageChain, StageEliminate:
			if ecc < 0 || ecc == Active {
				violate("state-encoding", "%s: vertex %d stage %v but ecc %d", where, v, st, ecc)
			}
		default:
			violate("state-encoding", "%s: vertex %d invalid stage %d", where, v, st)
		}
		if ecc == Winnowed && st != StageWinnow {
			violate("state-encoding", "%s: vertex %d winnowed sentinel under stage %v", where, v, st)
		}
	}
	counts := s.stageCounts()
	for _, c := range []struct {
		name string
		have int64
		want int64
	}{
		{"degree0", s.stats.RemovedDegree0, counts[StageDegree0]},
		{"winnow", s.stats.RemovedWinnow, counts[StageWinnow]},
		{"chain", s.stats.RemovedChain, counts[StageChain]},
		{"eliminate", s.stats.RemovedEliminate, counts[StageEliminate]},
		{"computed", s.stats.Computed, counts[StageComputed]},
	} {
		if c.have != c.want {
			violate("stats-accounting", "%s: stats %s=%d but %d vertices attributed",
				where, c.name, c.have, c.want)
		}
	}
}

// checkFinal is the differential oracle: on small inputs the finished
// bound is recomputed with the naive APSP-by-BFS baseline, which shares no
// code with the winnow/eliminate pipeline. A mismatch here is exactly the
// "plausible but wrong diameter" failure mode bound-bookkeeping bugs
// produce. For a run that stopped early by choice (ε-early-exit or
// approximation mode, early=true) the equality check relaxes to corridor
// containment — the partial-run soundness contract: lb ≤ truth ≤ ubCap.
// Cancelled runs are skipped entirely (their bounds are sound by the same
// argument but the connectivity verdict may not have been reached). Also
// audits every recorded upper bound against the true eccentricities while
// the distances are at hand — Eliminate records are proven when written,
// so the audit applies to early exits too.
func (s *solver) checkFinal(infinite, cancelled, early bool) {
	if cancelled || len(s.ecc) == 0 || len(s.ecc) > checkedDiffMaxN {
		return
	}
	ref := baseline.Naive(s.g, baseline.Options{Workers: 1})
	if early {
		if ref.Diameter < s.bound || (s.ubCap >= 0 && ref.Diameter > s.ubCap) {
			violate("anytime-corridor",
				"early-exit corridor [%d, %d] does not contain naive baseline %d",
				s.bound, s.ubCap, ref.Diameter)
		}
	} else if ref.Diameter != s.bound {
		violate("diameter-differential",
			"F-Diam bound %d != naive baseline %d", s.bound, ref.Diameter)
	}
	if ref.Infinite != infinite {
		violate("diameter-differential",
			"F-Diam infinite=%v != naive baseline infinite=%v", infinite, ref.Infinite)
	}
	// Upper-bound audit (Theorem 1 soundness of every Eliminate record).
	for v := range s.ecc {
		if s.stage[v] != StageEliminate {
			continue
		}
		dist := s.checkedDistances([]graph.Vertex{graph.Vertex(v)})
		trueEcc := int32(0)
		for _, d := range dist {
			if d > trueEcc {
				trueEcc = d
			}
		}
		if s.ecc[v] < trueEcc {
			violate("bound-soundness",
				"vertex %d recorded upper bound %d below true eccentricity %d",
				v, s.ecc[v], trueEcc)
		}
	}
}
