package core

import (
	"fmt"
	"sort"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// checkAgainstBruteForce asserts that every configuration of F-Diam agrees
// with the APSP-by-BFS ground truth on g.
func checkAgainstBruteForce(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := ecc.Diameter(g, 0)
	configs := []struct {
		label string
		opt   Options
	}{
		{"parallel", Options{}},
		{"serial", Options{Workers: 1}},
		{"noWinnow", Options{DisableWinnow: true}},
		{"noEliminate", Options{DisableEliminate: true}},
		{"noChain", Options{DisableChain: true}},
		{"noU", Options{StartAtVertexZero: true}},
		{"noDirOpt", Options{DisableDirectionOpt: true}},
		{"allOff", Options{DisableWinnow: true, DisableEliminate: true, DisableChain: true, StartAtVertexZero: true}},
	}
	for _, c := range configs {
		got := Diameter(g, c.opt)
		if got.Diameter != want {
			t.Errorf("%s/%s: diameter = %d, want %d (graph %v)", name, c.label, got.Diameter, want, g)
		}
		if got.TimedOut {
			t.Errorf("%s/%s: unexpected timeout", name, c.label)
		}
	}
}

func TestDiameterKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int32
	}{
		{"empty", graph.NewBuilder(0).Build(), 0},
		{"singleton", graph.NewBuilder(1).Build(), 0},
		{"edge", gen.Path(2), 1},
		{"path10", gen.Path(10), 9},
		{"path1000", gen.Path(1000), 999},
		{"cycle3", gen.Cycle(3), 1},
		{"cycle4", gen.Cycle(4), 2},
		{"cycle101", gen.Cycle(101), 50},
		{"cycle100", gen.Cycle(100), 50},
		{"star50", gen.Star(50), 2},
		{"complete20", gen.Complete(20), 1},
		{"grid8x8", gen.Grid2D(8, 8), 14},
		{"grid1x40", gen.Grid2D(1, 40), 39},
		{"grid17x5", gen.Grid2D(17, 5), 20},
		// The single diagonal only shortens one direction, so the
		// anti-diagonal corners stay 16 apart.
		{"trigrid9x9", gen.TriangularGrid(9, 9), 16},
		{"binarytree6", gen.BinaryTree(6), 10},
		{"caterpillar20x3", gen.Caterpillar(20, 3), 21},
		{"lollipop8x12", gen.Lollipop(8, 12), 13},
		{"barbell6x5", gen.Barbell(6, 5), 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Diameter(c.g, Options{})
			if got.Diameter != c.want {
				t.Fatalf("diameter = %d, want %d", got.Diameter, c.want)
			}
			checkAgainstBruteForce(t, c.name, c.g)
		})
	}
}

func TestDiameterDisconnected(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		want     int32
		infinite bool
	}{
		{"two-paths", gen.Disjoint(gen.Path(10), gen.Path(30)), 29, true},
		{"path-plus-isolated", gen.Disjoint(gen.Path(10), graph.NewBuilder(3).Build()), 9, true},
		{"isolated-only", graph.NewBuilder(5).Build(), 0, true},
		{"single-isolated", graph.NewBuilder(1).Build(), 0, false},
		{"cycle-and-star", gen.Disjoint(gen.Cycle(30), gen.Star(10)), 15, true},
		{"three-comps", gen.Disjoint(gen.Disjoint(gen.Path(5), gen.Cycle(8)), gen.Grid2D(4, 4)), 6, true},
		{"connected-control", gen.Path(10), 9, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, opt := range []Options{{}, {Workers: 1}, {StartAtVertexZero: true}} {
				got := Diameter(c.g, opt)
				if got.Diameter != c.want || got.Infinite != c.infinite {
					t.Errorf("opt=%+v: got (diam=%d, inf=%v), want (%d, %v)",
						opt, got.Diameter, got.Infinite, c.want, c.infinite)
				}
			}
		})
	}
}

func TestDiameterRandomConnected(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		n := 20 + int(seed*13)%180
		extra := int(seed * 7 % 60)
		g := gen.RandomConnected(n, extra, seed)
		checkAgainstBruteForce(t, fmt.Sprintf("rand-conn-%d", seed), g)
	}
}

func TestDiameterRandomTrees(t *testing.T) {
	// Trees are all chain and no cycle: the hardest shape for Chain
	// Processing bookkeeping.
	for seed := uint64(0); seed < 25; seed++ {
		n := 2 + int(seed*17)%200
		g := gen.RandomTree(n, seed+1000)
		checkAgainstBruteForce(t, fmt.Sprintf("rand-tree-%d", seed), g)
	}
}

func TestDiameterRandomDisconnected(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := gen.RandomConnected(10+int(seed)%40, int(seed)%20, seed)
		b := gen.RandomTree(5+int(seed*3)%50, seed+500)
		g := gen.Disjoint(a, b)
		want := ecc.Diameter(g, 0)
		got := Diameter(g, Options{})
		if got.Diameter != want || !got.Infinite {
			t.Errorf("seed %d: got (diam=%d, inf=%v), want (%d, true)", seed, got.Diameter, got.Infinite, want)
		}
	}
}

func TestDiameterWithChainsAndPendants(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		base := gen.RandomConnected(40+int(seed)%60, 30, seed)
		g := gen.WithChains(base, 3+int(seed)%4, 2+int(seed)%6, seed+77)
		g = gen.WithPendants(g, 10, seed+99)
		checkAgainstBruteForce(t, fmt.Sprintf("chains-%d", seed), g)
	}
}

func TestDiameterUniformEccentricity(t *testing.T) {
	// Cycles: every vertex has the same eccentricity — the paper's
	// stated worst case for F-Diam. Correctness must still hold.
	for _, n := range []int{3, 4, 5, 8, 33, 64, 127, 256} {
		checkAgainstBruteForce(t, fmt.Sprintf("cycle-%d", n), gen.Cycle(n))
	}
}

func TestDiameterPowerLaw(t *testing.T) {
	shapes := []*graph.Graph{
		gen.RMAT(8, 8, gen.DefaultRMAT, 1),
		gen.Kronecker(8, 10, 2),
		gen.BarabasiAlbert(300, 3, 3),
		gen.CopyModel(300, 5, 0.5, 4),
		gen.WattsStrogatz(200, 3, 0.1, 5),
	}
	for i, g := range shapes {
		checkAgainstBruteForce(t, fmt.Sprintf("powerlaw-%d", i), g)
	}
}

func TestDiameterGeometricAndRoad(t *testing.T) {
	g1 := gen.RandomGeometric(400, gen.RadiusForDegree(400, 8), 6)
	checkAgainstBruteForce(t, "rgg", g1)
	g2 := gen.RoadNetwork(20, 20, 0.15, 7)
	checkAgainstBruteForce(t, "road", g2)
}

func TestStatsAccounting(t *testing.T) {
	g := gen.WithChains(gen.RandomConnected(200, 100, 42), 5, 4, 43)
	g = gen.Disjoint(g, graph.NewBuilder(7).Build()) // 7 isolated vertices
	res := Diameter(g, Options{})
	s := res.Stats
	n := int64(g.NumVertices())
	total := s.RemovedWinnow + s.RemovedEliminate + s.RemovedChain + s.RemovedDegree0 + s.Computed
	if total != n {
		t.Errorf("stage counts sum to %d, want n=%d (%+v)", total, n, s)
	}
	if s.RemovedDegree0 != 7 {
		t.Errorf("degree-0 count = %d, want 7", s.RemovedDegree0)
	}
	if s.EccBFS != s.Computed {
		t.Errorf("EccBFS=%d != Computed=%d", s.EccBFS, s.Computed)
	}
	if s.WinnowCalls < 1 {
		t.Errorf("expected at least one winnow call, got %d", s.WinnowCalls)
	}
	if s.BFSTraversals() != s.EccBFS+s.WinnowCalls {
		t.Errorf("BFSTraversals mismatch")
	}
}

func TestStatsPercentagesSumTo100(t *testing.T) {
	g := gen.RMAT(9, 8, gen.DefaultRMAT, 11)
	res := Diameter(g, Options{})
	s := res.Stats
	sum := s.PctWinnow() + s.PctEliminate() + s.PctChain() + s.PctDegree0() + s.PctComputed()
	if sum < 99.99 || sum > 100.01 {
		t.Errorf("stage percentages sum to %f, want 100", sum)
	}
}

func TestWinnowIsEffective(t *testing.T) {
	// On a power-law graph Winnow should remove the overwhelming
	// majority of vertices (paper Table 4: >70% on all inputs; >99% on
	// most power-law inputs).
	g := gen.BarabasiAlbert(5000, 4, 9)
	res := Diameter(g, Options{})
	if res.Stats.PctWinnow() < 70 {
		t.Errorf("winnow removed only %.1f%%, expected >= 70%%", res.Stats.PctWinnow())
	}
}

func TestFewerBFSThanVertices(t *testing.T) {
	// The entire point of the paper: orders of magnitude fewer BFS
	// traversals than vertices.
	g := gen.BarabasiAlbert(5000, 4, 10)
	res := Diameter(g, Options{})
	if res.Stats.BFSTraversals() > int64(g.NumVertices())/10 {
		t.Errorf("too many BFS traversals: %d for %d vertices", res.Stats.BFSTraversals(), g.NumVertices())
	}
}

func TestDisableWinnowIncreasesBFS(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 12)
	full := Diameter(g, Options{})
	abl := Diameter(g, Options{DisableWinnow: true})
	if abl.Diameter != full.Diameter {
		t.Fatalf("ablation changed the diameter: %d vs %d", abl.Diameter, full.Diameter)
	}
	if abl.Stats.EccBFS < full.Stats.EccBFS {
		t.Errorf("no-winnow used fewer ecc BFS (%d) than full (%d)", abl.Stats.EccBFS, full.Stats.EccBFS)
	}
}

func TestTimeout(t *testing.T) {
	g := gen.Cycle(20000) // uniform eccentricity: many BFS calls needed
	res := Diameter(g, Options{Timeout: 1, Workers: 1})
	if !res.TimedOut {
		t.Skip("machine too fast for 1ns timeout test") // defensive; Timeout=1ns should always trip
	}
	if res.Diameter > 10000 {
		t.Errorf("timed-out lower bound %d exceeds true diameter 10000", res.Diameter)
	}
}

func TestWorkersSweep(t *testing.T) {
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 13)
	want := Diameter(g, Options{Workers: 1}).Diameter
	for _, w := range []int{2, 3, 4, 8} {
		got := Diameter(g, Options{Workers: w}).Diameter
		if got != want {
			t.Errorf("workers=%d: diameter %d, want %d", w, got, want)
		}
	}
}

func TestBoundImprovementPathsAreExercised(t *testing.T) {
	// The 2-sweep bound is not always tight. Scan a deterministic seed
	// range and require that a healthy share of instances force the main
	// loop to raise the bound — which drives the incremental Winnow
	// extension and the multi-source extension of eliminated regions
	// (§4.5). Pinning exact seeds instead would couple the test to the
	// BFS engine's frontier ordering, which decides the peripheral vertex
	// the 2-sweep picks and thus whether the initial bound is tight.
	improved := 0
	sawExtension := false
	for seed := uint64(0); seed < 60; seed++ {
		g := gen.RandomConnected(150+int(seed%80), int(seed%120), seed)
		res := Diameter(g, Options{Workers: 1})
		if res.Stats.BoundImprovements > 0 {
			improved++
			if res.Stats.WinnowCalls >= 2 {
				sawExtension = true
			}
			checkAgainstBruteForce(t, fmt.Sprintf("improve-%d", seed), g)
		}
	}
	if improved < 5 {
		t.Errorf("only %d/60 seeds improved the 2-sweep bound (scan regression?)", improved)
	}
	if !sawExtension {
		t.Error("no seed exercised the incremental winnow extension")
	}
}

func TestWinnowExtensionOnlyWhenBallGrows(t *testing.T) {
	// bound/2 must grow for a re-winnow; a +1 bound improvement from an
	// even bound keeps the ball radius and must not recount a call.
	// Verified indirectly: winnow calls never exceed improvements+1.
	for seed := uint64(0); seed < 30; seed++ {
		g := gen.RandomConnected(100, int(seed*7)%90, seed+3000)
		res := Diameter(g, Options{})
		if res.Stats.WinnowCalls > res.Stats.BoundImprovements+1 {
			t.Errorf("seed %d: %d winnow calls for %d improvements",
				seed, res.Stats.WinnowCalls, res.Stats.BoundImprovements)
		}
	}
}

// traversalsInWinnow is a trace sink that counts the Winnow stage spans
// and the traversals that start inside one.
type traversalsInWinnow struct {
	inWinnow      bool
	spans, inside int
}

func (c *traversalsInWinnow) Emit(e obs.Event) {
	switch {
	case e.Cat == "stage" && e.Name == "winnow":
		c.inWinnow = e.Kind == obs.KindBegin
		if c.inWinnow {
			c.spans++
		}
	case e.Cat == "traversal" && e.Kind == obs.KindBegin && c.inWinnow:
		c.inside++
	}
}

func (c *traversalsInWinnow) Close() error { return nil }

// TestWinnowRunsNoTraversal: Winnow reads its ball off the start's
// distances, so no BFS starts inside a winnow stage span, neither in the
// initial call nor in the extensions after a bound improvement (the road
// input improves its bound in the main loop).
func TestWinnowRunsNoTraversal(t *testing.T) {
	for name, tc := range map[string]struct {
		g         *graph.Graph
		minWinnow int64
	}{
		"whiskers": {gen.CoreWhiskers(4000, 4, 0.3, 8, 2), 1},
		"road":     {gen.RoadNetwork(60, 60, 0.2, 5), 2},
	} {
		run := obs.NewRun(obs.Config{})
		sink := &traversalsInWinnow{}
		run.AddSink(sink)
		res := Diameter(tc.g, Options{Workers: 1, Trace: run})
		if err := run.Finish(); err != nil {
			t.Fatal(err)
		}
		if res.Stats.WinnowCalls < tc.minWinnow || int64(sink.spans) != res.Stats.WinnowCalls {
			t.Fatalf("%s: %d winnow spans for %d calls, want at least %d calls",
				name, sink.spans, res.Stats.WinnowCalls, tc.minWinnow)
		}
		if sink.inside != 0 {
			t.Errorf("%s: %d traversals started inside winnow spans", name, sink.inside)
		}
	}
}

func TestSerialAndParallelIdenticalStats(t *testing.T) {
	// The removal accounting must not depend on the worker count (the
	// algorithm is deterministic; parallelism only affects who marks a
	// vertex first within one level, not which vertices are marked).
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(300, 200, seed+4000)
		a := Diameter(g, Options{Workers: 1}).Stats
		b := Diameter(g, Options{Workers: 4}).Stats
		if a.RemovedWinnow != b.RemovedWinnow || a.RemovedChain != b.RemovedChain ||
			a.RemovedEliminate != b.RemovedEliminate || a.Computed != b.Computed {
			t.Errorf("seed %d: stats differ serial vs parallel:\n  ser: %+v\n  par: %+v",
				seed, a, b)
		}
	}
}

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageActive:    "active",
		StageDegree0:   "degree-0",
		StageWinnow:    "winnow",
		StageChain:     "chain",
		StageEliminate: "eliminate",
		StageComputed:  "computed",
		numStages:      "invalid",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestChainHeavyShapes(t *testing.T) {
	// Shapes engineered so chains interact: shared hubs, chains meeting
	// chains, whisker trees.
	shapes := map[string]*graph.Graph{
		"star-of-paths": func() *graph.Graph {
			// 6 paths of different lengths glued at one center.
			b := graph.NewBuilder(1)
			next := graph.Vertex(1)
			for arm := 1; arm <= 6; arm++ {
				prev := graph.Vertex(0)
				for i := 0; i < arm*2; i++ {
					b.AddEdge(prev, next)
					prev = next
					next++
				}
			}
			return b.Build()
		}(),
		"double-lollipop": gen.Barbell(5, 9),
		"deep-whiskers":   gen.CoreWhiskers(400, 3, 0.5, 12, 9),
		"caterpillar-x":   gen.Caterpillar(40, 1),
		"path-of-cliques": func() *graph.Graph {
			b := graph.NewBuilder(0)
			var prev graph.Vertex
			for c := 0; c < 5; c++ {
				base := graph.Vertex(c * 4)
				for i := 0; i < 4; i++ {
					for j := i + 1; j < 4; j++ {
						b.AddEdge(base+graph.Vertex(i), base+graph.Vertex(j))
					}
				}
				if c > 0 {
					b.AddEdge(prev, base)
				}
				prev = base + 3
			}
			return b.Build()
		}(),
	}
	for name, g := range shapes {
		checkAgainstBruteForce(t, name, g)
	}
}

func TestDiameterInvariantUnderRelabeling(t *testing.T) {
	// Relabeling changes which vertex the max-degree tie-break selects
	// and the whole traversal order; the diameter must not care. Two
	// relabelings: BFS discovery order from the max-degree vertex, and
	// descending degree.
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.WithChains(gen.RandomConnected(120, 80, seed+7000), 3, 5, seed+7100)
		want := Diameter(g, Options{}).Diameter
		n := g.NumVertices()
		bfsOrder := []graph.Vertex{g.MaxDegreeVertex()}
		seen := make([]bool, n)
		seen[bfsOrder[0]] = true
		for head := 0; head < len(bfsOrder); head++ {
			for _, w := range g.Neighbors(bfsOrder[head]) {
				if !seen[w] {
					seen[w] = true
					bfsOrder = append(bfsOrder, w)
				}
			}
		}
		if len(bfsOrder) != n {
			t.Fatalf("seed %d: graph is not connected", seed)
		}
		degOrder := make([]graph.Vertex, n)
		for i := range degOrder {
			degOrder[i] = graph.Vertex(i)
		}
		sort.SliceStable(degOrder, func(i, j int) bool { return g.Degree(degOrder[i]) > g.Degree(degOrder[j]) })
		for _, order := range [][]graph.Vertex{bfsOrder, degOrder} {
			if got := Diameter(relabel(g, order), Options{}).Diameter; got != want {
				t.Errorf("seed %d: relabeled diameter %d, want %d", seed, got, want)
			}
		}
	}
}

// relabel returns a copy of g in which old vertex order[i] is vertex i.
func relabel(g *graph.Graph, order []graph.Vertex) *graph.Graph {
	newID := make([]graph.Vertex, len(order))
	for i, v := range order {
		newID[v] = graph.Vertex(i)
	}
	b := graph.NewBuilder(len(order))
	for v, id := range newID {
		for _, w := range g.Neighbors(graph.Vertex(v)) {
			if graph.Vertex(v) < w {
				b.AddEdge(id, newID[w])
			}
		}
	}
	return b.Build()
}

func TestDiameterWitnessPair(t *testing.T) {
	refDistOf := func(g *graph.Graph, src graph.Vertex) []int32 {
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
	for seed := uint64(0); seed < 12; seed++ {
		g := gen.WithChains(gen.RandomConnected(100, int(seed*13)%80, seed+8000), 2, 4, seed+8100)
		res := Diameter(g, Options{})
		if res.WitnessA == graph.NoVertex || res.WitnessB == graph.NoVertex {
			t.Fatalf("seed %d: no witness returned", seed)
		}
		d := refDistOf(g, res.WitnessA)
		if d[res.WitnessB] != res.Diameter {
			t.Errorf("seed %d: d(witnessA, witnessB) = %d, want diameter %d",
				seed, d[res.WitnessB], res.Diameter)
		}
	}
	// Edgeless graph: no witness.
	res := Diameter(graph.NewBuilder(3).Build(), Options{})
	if res.WitnessA != graph.NoVertex || res.WitnessB != graph.NoVertex {
		t.Error("edgeless graph produced a witness")
	}
	// Bound-improvement seeds must update the witness too.
	for _, seed := range []uint64{2, 47, 84} {
		g := gen.RandomConnected(150+int(seed%80), int(seed%120), seed)
		res := Diameter(g, Options{Workers: 1})
		d := refDistOf(g, res.WitnessA)
		if d[res.WitnessB] != res.Diameter {
			t.Errorf("improve seed %d: witness distance %d, want %d", seed, d[res.WitnessB], res.Diameter)
		}
	}
}
