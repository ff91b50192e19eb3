package core

// White-box tests: these run individual F-Diam stages on a hand-driven
// solver and check the paper's invariants directly, rather than only the
// end-to-end diameter.

import (
	"slices"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// refDist computes single-source distances with a simple reference BFS.
func refDist(g *graph.Graph, src graph.Vertex) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.Vertex{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// prepSolver builds a solver with initialized state arrays, as run() would.
func prepSolver(g *graph.Graph, opt Options) *solver {
	s := newSolver(g, opt)
	n := g.NumVertices()
	s.ecc = make([]int32, n)
	s.stage = make([]Stage, n)
	for i := range s.ecc {
		s.ecc[i] = Active
	}
	s.stats.Vertices = n
	return s
}

func TestWinnowMarksExactlyTheBall(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.RandomConnected(200, int(seed*13)%150, seed+800)
		s := prepSolver(g, Options{Workers: 1})
		s.start = g.MaxDegreeVertex()
		s.dist = refDist(g, s.start)
		s.bound = 9 // arbitrary bound; ball radius 4
		s.winnow()

		dist := refDist(g, s.start)
		radius := s.bound / 2
		for v := 0; v < g.NumVertices(); v++ {
			inBall := dist[v] >= 0 && dist[v] <= radius && graph.Vertex(v) != s.start
			winnowed := s.ecc[v] == Winnowed
			if inBall != winnowed {
				t.Fatalf("seed %d: vertex %d dist %d radius %d: winnowed=%v",
					seed, v, dist[v], radius, winnowed)
			}
		}
	}
}

func TestWinnowIncrementalEqualsFromScratch(t *testing.T) {
	// Winnowing to radius r1 and extending to r2 must mark exactly the
	// same set as winnowing straight to r2.
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.RandomConnected(300, 150, seed+900)
		u := g.MaxDegreeVertex()

		inc := prepSolver(g, Options{Workers: 1})
		inc.start = u
		inc.dist = refDist(g, u)
		inc.bound = 6 // radius 3
		inc.winnow()
		inc.bound = 12 // radius 6
		inc.winnow()

		direct := prepSolver(g, Options{Workers: 1})
		direct.start = u
		direct.dist = refDist(g, u)
		direct.bound = 12
		direct.winnow()

		for v := range inc.ecc {
			if (inc.ecc[v] == Winnowed) != (direct.ecc[v] == Winnowed) {
				t.Fatalf("seed %d: incremental and direct winnow disagree at vertex %d", seed, v)
			}
		}
		if inc.stats.WinnowCalls != 2 || direct.stats.WinnowCalls != 1 {
			t.Fatalf("call counting wrong: %d / %d", inc.stats.WinnowCalls, direct.stats.WinnowCalls)
		}
	}
}

func TestWinnowNoOpWhenRadiusUnchanged(t *testing.T) {
	g := gen.RandomConnected(100, 60, 77)
	s := prepSolver(g, Options{Workers: 1})
	s.start = g.MaxDegreeVertex()
	s.dist = refDist(g, s.start)
	s.bound = 8
	s.winnow()
	marked := s.stats.RemovedWinnow
	s.bound = 9 // radius still 4
	s.winnow()
	if s.stats.WinnowCalls != 1 || s.stats.RemovedWinnow != marked {
		t.Fatalf("re-winnow with unchanged radius was not a no-op: calls=%d", s.stats.WinnowCalls)
	}
}

func TestEliminateMarksBallWithValidBounds(t *testing.T) {
	// After Eliminate(v, ecc(v), bound), every vertex within
	// bound−ecc(v) of v must be removed, and every recorded numeric
	// value must be ≥ the vertex's true eccentricity (it is an upper
	// bound by Theorem 1).
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.RandomConnected(200, int(seed*29)%150, seed+1100)
		trueEcc := ecc.All(g, 0)
		src := graph.Vertex(int(seed*37) % g.NumVertices())
		bound := trueEcc[src] + 3 // pretend the diameter bound is 3 above

		s := prepSolver(g, Options{Workers: 1})
		s.bound = bound
		s.setComputed(src, trueEcc[src])
		s.eliminateFrom([]graph.Vertex{src}, trueEcc[src], bound, StageEliminate)

		dist := refDist(g, src)
		radius := bound - trueEcc[src]
		for v := 0; v < g.NumVertices(); v++ {
			if graph.Vertex(v) == src {
				continue
			}
			inBall := dist[v] >= 1 && dist[v] <= radius
			removed := s.ecc[v] != Active
			if inBall != removed {
				t.Fatalf("seed %d: vertex %d dist %d radius %d removed=%v",
					seed, v, dist[v], radius, removed)
			}
			if removed {
				if s.ecc[v] < trueEcc[v] {
					t.Fatalf("seed %d: recorded bound %d below true ecc %d at vertex %d",
						seed, s.ecc[v], trueEcc[v], v)
				}
				if s.ecc[v] != trueEcc[src]+dist[v] {
					t.Fatalf("seed %d: recorded %d, want ecc(src)+d = %d",
						seed, s.ecc[v], trueEcc[src]+dist[v])
				}
			}
		}
	}
}

func TestEliminateKeepsTighterBound(t *testing.T) {
	g := gen.Path(10)
	s := prepSolver(g, Options{Workers: 1})
	s.bound = 9
	// The seed carries a recorded upper bound, as after a real evaluation.
	s.ecc[4] = 4
	s.stage[4] = StageEliminate
	// First eliminate records value 5 at distance-1 neighbors of 4.
	s.eliminateFrom([]graph.Vertex{4}, 4, 5, StageEliminate)
	if s.ecc[5] != 5 || s.ecc[3] != 5 {
		t.Fatalf("first eliminate wrong: %v", s.ecc[:8])
	}
	// A looser pass (values starting higher) must not overwrite 5.
	s.eliminateFrom([]graph.Vertex{4}, 7, 9, StageEliminate)
	if s.ecc[5] != 5 {
		t.Fatalf("looser bound overwrote tighter: %d", s.ecc[5])
	}
	// A tighter pass (the seed's own bound was re-recorded lower) must
	// overwrite.
	s.ecc[4] = 2
	s.eliminateFrom([]graph.Vertex{4}, 2, 4, StageEliminate)
	if s.ecc[5] != 3 {
		t.Fatalf("tighter bound not recorded: %d", s.ecc[5])
	}
}

func TestRecordedValuesAreUpperBoundsAfterFullRun(t *testing.T) {
	// Global invariant: after a complete run, every vertex that carries
	// a numeric state (not Active, not Winnowed) holds a value ≥ its
	// true eccentricity, with equality for StageComputed vertices;
	// Chain's sentinel values are near chainMax and also respect ≥.
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.WithChains(gen.RandomConnected(150, 100, seed+1200), 4, 4, seed+1300)
		trueEcc := ecc.All(g, 0)
		s := newSolver(g, Options{Workers: 1})
		res := s.run()
		if res.TimedOut {
			t.Fatal("unexpected timeout")
		}
		for v := 0; v < g.NumVertices(); v++ {
			switch {
			case s.ecc[v] == Active:
				t.Fatalf("seed %d: vertex %d still active after run", seed, v)
			case s.ecc[v] == Winnowed:
				// no numeric claim
			case s.stage[v] == StageComputed:
				if s.ecc[v] != trueEcc[v] {
					t.Fatalf("seed %d: computed ecc(%d) = %d, want %d",
						seed, v, s.ecc[v], trueEcc[v])
				}
			default:
				if s.ecc[v] < trueEcc[v] {
					t.Fatalf("seed %d: stage %v recorded %d < true ecc %d at vertex %d",
						seed, s.stage[v], s.ecc[v], trueEcc[v], v)
				}
			}
		}
	}
}

func TestChainWalkOnKnownShapes(t *testing.T) {
	// Lollipop: clique of 5 (vertices 0..4) with a tail 0-5-6-7-8.
	g := gen.Lollipop(5, 4)
	s := prepSolver(g, Options{Workers: 1})
	s.chains()
	// The anchor (tail tip, vertex 8) must stay active; the chain end
	// (clique vertex 0) and everything within 4 steps of it must be
	// removed as StageChain.
	tip := graph.Vertex(8)
	if s.ecc[tip] != Active {
		t.Fatalf("tail tip removed: state %d", s.ecc[tip])
	}
	for v := 0; v < 8; v++ {
		if s.ecc[v] == Active {
			t.Errorf("vertex %d should be chain-removed", v)
		} else if s.stage[v] != StageChain {
			t.Errorf("vertex %d attributed to %v, want chain", v, s.stage[v])
		}
	}
	if got := s.stats.RemovedChain; got != 8 {
		t.Errorf("chain removed %d vertices, want 8", got)
	}
}

func TestChainSkipsRemovedAnchors(t *testing.T) {
	// Star of pendant leaves: once the first leaf's chain eliminates
	// the hub's neighborhood, later leaves are already removed and must
	// be skipped (otherwise the hub would be re-eliminated per leaf).
	g := gen.Star(50)
	s := prepSolver(g, Options{Workers: 1})
	s.chains()
	active := 0
	for v := range s.ecc {
		if s.ecc[v] == Active {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("%d active vertices after chains on a star, want 1 anchor", active)
	}
	if s.stats.EliminateCalls != 1 {
		t.Fatalf("eliminate called %d times, want 1 (deduplicated per chain end)", s.stats.EliminateCalls)
	}
}

func TestExtendEliminatedGrowsRegions(t *testing.T) {
	// A path with an eliminate region around the middle: raising the
	// bound must extend the region from its outermost ring only.
	g := gen.Path(21)
	s := prepSolver(g, Options{Workers: 1})
	s.bound = 10
	s.setComputed(10, 8)
	s.eliminateFrom([]graph.Vertex{10}, 8, 10, StageEliminate) // removes 8..12 except 10 (radius 2)
	if s.ecc[8] != 10 || s.ecc[12] != 10 || s.ecc[7] != Active {
		t.Fatalf("setup wrong: %v", s.ecc[5:16])
	}
	s.bound = 12
	s.extendEliminated(10) // seeds: recorded==10, i.e. vertices 8 and 12
	for _, v := range []int{6, 7, 13, 14} {
		if s.ecc[v] == Active {
			t.Errorf("vertex %d not reached by extension", v)
		}
	}
	if s.ecc[5] != Active || s.ecc[15] != Active {
		t.Error("extension went too far")
	}
	if s.ecc[7] != 11 || s.ecc[6] != 12 {
		t.Errorf("extension values wrong: %v", s.ecc[4:17])
	}
}

// TestExtendEliminatedParallelMatchesSerial pins the parallel expansion of
// the multi-source extension pass against the serial one on a seed ring
// large enough for extendEliminated to pick the parallel path: identical
// recorded bounds, outermost ring, level count and Eliminate counters.
func TestExtendEliminatedParallelMatchesSerial(t *testing.T) {
	const cols, rows = 40, 1100
	g := gen.Grid2D(cols, rows) // vertex y*cols + x
	run := func(parallel bool) (*solver, []graph.Vertex, int32) {
		s := prepSolver(g, Options{Workers: 2})
		s.bound = 10
		// An eliminated region two columns wide along the left edge: its
		// outermost ring, column 2, records the old bound 10.
		col0 := make([]graph.Vertex, rows)
		for y := range col0 {
			col0[y] = graph.Vertex(y * cols)
			s.setComputed(col0[y], 8)
		}
		s.eliminateFrom(col0, 8, 10, StageEliminate)
		s.bound = 16
		var seeds []graph.Vertex
		for v := range s.ecc {
			if s.ecc[v] == 10 {
				seeds = append(seeds, graph.Vertex(v))
			}
		}
		if len(seeds) != rows || len(seeds) < batchEliminateSeedCutoff {
			t.Fatalf("ring has %d seeds, want %d (≥ %d)", len(seeds), rows, batchEliminateSeedCutoff)
		}
		ring, levels := s.eliminateFromPar(seeds, 10, s.bound, StageEliminate, parallel)
		slices.Sort(ring)
		return s, ring, levels
	}
	ser, serRing, serLevels := run(false)
	pll, parRing, parLevels := run(true)
	if !slices.Equal(ser.ecc, pll.ecc) {
		t.Error("recorded bounds differ between serial and parallel expansion")
	}
	if !slices.Equal(serRing, parRing) || len(serRing) != rows {
		t.Errorf("rings differ: serial %d vertices, parallel %d, want %d", len(serRing), len(parRing), rows)
	}
	if serLevels != parLevels || serLevels != 6 {
		t.Errorf("levels: serial %d, parallel %d, want 6", serLevels, parLevels)
	}
	if ser.stats.RemovedEliminate != pll.stats.RemovedEliminate {
		t.Errorf("RemovedEliminate: serial %d, parallel %d", ser.stats.RemovedEliminate, pll.stats.RemovedEliminate)
	}
	if ser.stats.EliminateVisited != pll.stats.EliminateVisited {
		t.Errorf("EliminateVisited: serial %d, parallel %d", ser.stats.EliminateVisited, pll.stats.EliminateVisited)
	}
}

func TestStageAttributionMatchesCounters(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.WithChains(gen.RandomConnected(200, 120, seed+1400), 3, 5, seed+1500)
		s := newSolver(g, Options{})
		s.run()
		counts := map[Stage]int64{}
		for v := range s.stage {
			counts[s.stage[v]]++
		}
		if counts[StageWinnow] != s.stats.RemovedWinnow ||
			counts[StageChain] != s.stats.RemovedChain ||
			counts[StageEliminate] != s.stats.RemovedEliminate ||
			counts[StageDegree0] != s.stats.RemovedDegree0 ||
			counts[StageComputed] != s.stats.Computed {
			t.Fatalf("seed %d: attribution mismatch: per-vertex %v vs counters %+v",
				seed, counts, s.stats)
		}
	}
}

func TestTheorem2WinnowSafety(t *testing.T) {
	// The core Winnow guarantee: after winnowing the bound/2 ball, at
	// least one vertex attaining the true diameter remains un-winnowed
	// (Theorem 2: two attain it, and they are > bound apart... whenever
	// the diameter exceeds the bound).
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(150, int(seed*17)%100, seed+1600)
		// The graph is connected, so the periphery is every vertex whose
		// eccentricity equals the largest one.
		eccs := ecc.All(g, 0)
		diam := slices.Max(eccs)
		s := prepSolver(g, Options{Workers: 1})
		s.start = g.MaxDegreeVertex()
		s.dist = refDist(g, s.start)
		// Use a deliberately low bound — winnowing must STILL keep a
		// diameter witness when diam > bound.
		s.bound = diam - 1
		if s.bound < 1 {
			continue
		}
		s.winnow()
		witness := false
		for p, e := range eccs {
			if e == diam && s.ecc[p] != Winnowed {
				witness = true
				break
			}
		}
		if !witness {
			t.Fatalf("seed %d: winnow removed every diameter witness (diam %d, bound %d)",
				seed, diam, s.bound)
		}
	}
}

func TestEliminateCallCountOnPathologies(t *testing.T) {
	// Guard against accidental quadratic blowups: total eliminate calls
	// stay linear-ish in the number of chains, not leaves × hub degree.
	cases := map[string]*graph.Graph{
		"star1000":     gen.Star(1000),
		"caterpillar":  gen.Caterpillar(100, 5),
		"whisker-tree": gen.CoreWhiskers(2000, 3, 0.6, 10, 3),
	}
	for name, g := range cases {
		s := newSolver(g, Options{Workers: 1})
		s.run()
		if s.stats.EliminateCalls > int64(g.NumVertices()) {
			t.Errorf("%s: %d eliminate calls on %d vertices", name, s.stats.EliminateCalls, g.NumVertices())
		}
	}
}
