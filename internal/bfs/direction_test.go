package bfs

import (
	"fmt"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// The adaptive heuristic's observable contract: hub-heavy low-diameter
// graphs must actually take the bottom-up path (that is where the speedup
// lives), and high-diameter thin-frontier graphs must never pay for it.

func TestDirectionSwitchesOnPowerLaw(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(12, 16, gen.DefaultRMAT, 7)},
		{"kronecker", gen.Kronecker(12, 16, 3)},
		{"copymodel", gen.CopyModel(6000, 12, 0.6, 11)},
	}
	for _, c := range cases {
		e := New(c.g, 1)
		// The max-degree vertex is F-Diam's 2-sweep start: its first
		// levels saturate the graph, exactly the regime the cost model
		// must recognize.
		e.Eccentricity(c.g.MaxDegreeVertex())
		if s := e.LastTraversalSwitches(); s < 1 {
			t.Errorf("%s: no direction switch from the max-degree vertex (n=%d, m=%d)",
				c.name, c.g.NumVertices(), c.g.NumArcs())
		}
	}
}

func TestNoSwitchesOnHighDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(20000)},
		{"grid", gen.Grid2D(120, 120)},
		{"road", gen.RoadNetwork(80, 80, 0.1, 5)},
	}
	for _, c := range cases {
		e := New(c.g, 1)
		e.Eccentricity(0)
		e.Eccentricity(c.g.MaxDegreeVertex())
		if s := e.DirectionSwitches(); s != 0 {
			t.Errorf("%s: %d direction switches on a thin-frontier graph (bottom-up can only lose here)",
				c.name, s)
		}
	}
}

// directionCatalog is the topology spread for the equivalence tests: every
// generator family in the package at sizes small enough to sweep sources.
func directionCatalog() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":        gen.Path(900),
		"cycle":       gen.Cycle(900),
		"star":        gen.Star(900),
		"tree":        gen.BinaryTree(9),
		"lollipop":    gen.Lollipop(40, 200),
		"grid":        gen.Grid2D(30, 30),
		"trigrid":     gen.TriangularGrid(25, 25),
		"road":        gen.RoadNetwork(25, 25, 0.1, 3),
		"geometric":   gen.RandomGeometric(800, gen.RadiusForDegree(800, 6), 9),
		"rmat":        gen.RMAT(9, 12, gen.DefaultRMAT, 1),
		"kronecker":   gen.Kronecker(9, 10, 2),
		"ba":          gen.BarabasiAlbert(900, 4, 4),
		"whiskers":    gen.CoreWhiskers(900, 6, 0.3, 4, 8),
		"smallworld":  gen.WattsStrogatz(900, 6, 0.1, 6),
		"erdosrenyi":  gen.ErdosRenyi(900, 2700, 12),
		"withpend":    gen.WithPendants(gen.RMAT(8, 8, gen.DefaultRMAT, 3), 150, 13),
		"withchains":  gen.WithChains(gen.Kronecker(8, 8, 5), 20, 15, 14),
		"caterpillar": gen.Caterpillar(100, 8),
	}
}

func TestDirOptEquivalenceAcrossCatalog(t *testing.T) {
	// For every topology, eccentricities must be identical with the
	// adaptive hybrid on, off, and forced to pure bottom-up, at each
	// worker width. Plain top-down (dirOpt off) is the trusted reference.
	var switches int64
	for name, g := range directionCatalog() {
		n := g.NumVertices()
		step := n/17 + 1
		for _, workers := range []int{1, 4} {
			ref := New(g, workers)
			ref.SetDirectionOptimized(false)
			adaptive := New(g, workers)
			forced := New(g, workers)
			forced.setAlphaBeta(1<<30, 1<<30)
			forced.setSerialCutoff(0)
			// The adaptive schedule at two or more workers and a zero
			// cutoff: every bottom-up level runs the parallel scan, which
			// reads the marks a serial top-down level just wrote, and the
			// top-down levels after the β exit read the marks its deferred
			// pass wrote.
			mixed := New(g, max(workers, 2))
			mixed.setSerialCutoff(0)
			srcs := []graph.Vertex{g.MaxDegreeVertex()}
			for v := 0; v < n; v += step {
				srcs = append(srcs, graph.Vertex(v))
			}
			for _, src := range srcs {
				want := ref.Eccentricity(src)
				if got := adaptive.Eccentricity(src); got != want {
					t.Errorf("%s workers=%d: adaptive ecc(%d) = %d, top-down says %d",
						name, workers, src, got, want)
				}
				if got := forced.Eccentricity(src); got != want {
					t.Errorf("%s workers=%d: forced bottom-up ecc(%d) = %d, top-down says %d",
						name, workers, src, got, want)
				}
				if got := mixed.Eccentricity(src); got != want {
					t.Errorf("%s workers=%d: adaptive with parallel bottom-up ecc(%d) = %d, top-down says %d",
						name, max(workers, 2), src, got, want)
				}
			}
			switches += mixed.DirectionSwitches()
		}
	}
	if switches == 0 {
		t.Fatal("no catalog traversal switched direction: the parallel bottom-up case never ran")
	}
}

func TestAlphaBetaExtremesAgree(t *testing.T) {
	// Sweeping the knobs across extremes changes only the execution
	// schedule, never the result. β = 1 makes the exit condition
	// (frontier < n) trigger immediately, so bottom-up runs one level at
	// a time; α = 1 makes entry maximally reluctant.
	g := gen.RMAT(10, 12, gen.DefaultRMAT, 21)
	ref := New(g, 1)
	ref.SetDirectionOptimized(false)
	for _, ab := range [][2]int{{1, 1}, {1, 1 << 30}, {1 << 30, 1}, {1 << 30, 1 << 30}, {3, 5}} {
		e := New(g, 1)
		e.setAlphaBeta(ab[0], ab[1])
		for v := 0; v < g.NumVertices(); v += 97 {
			if got, want := e.Eccentricity(graph.Vertex(v)), ref.Eccentricity(graph.Vertex(v)); got != want {
				t.Errorf("alpha=%d beta=%d: ecc(%d) = %d, want %d", ab[0], ab[1], v, got, want)
			}
		}
	}
}

func TestSwitchCountersAccumulate(t *testing.T) {
	g := gen.Kronecker(12, 16, 9)
	e := New(g, 1)
	src := g.MaxDegreeVertex()
	e.Eccentricity(src)
	first := e.LastTraversalSwitches()
	if first < 1 {
		t.Fatalf("expected switches on a Kronecker hub traversal")
	}
	if e.DirectionSwitches() != first {
		t.Errorf("cumulative %d != last %d after one traversal", e.DirectionSwitches(), first)
	}
	e.Eccentricity(src)
	if e.LastTraversalSwitches() != first {
		t.Errorf("identical traversal switched %d times, first did %d", e.LastTraversalSwitches(), first)
	}
	if got, want := e.DirectionSwitches(), 2*first; got != want {
		t.Errorf("cumulative = %d, want %d", got, want)
	}
}

func TestDisableDirOptNeverSwitches(t *testing.T) {
	for i, g := range []*graph.Graph{
		gen.Star(4000),
		gen.RMAT(11, 16, gen.DefaultRMAT, 2),
	} {
		e := New(g, 1)
		e.SetDirectionOptimized(false)
		e.Eccentricity(g.MaxDegreeVertex())
		if s := e.DirectionSwitches(); s != 0 {
			t.Errorf("graph %d: dirOpt disabled but %d switches recorded", i, s)
		}
	}
}

func ExampleEngine_LastTraversalSwitches() {
	g := gen.Path(100)
	e := New(g, 1)
	e.Eccentricity(0)
	fmt.Println(e.LastTraversalSwitches())
	// Output: 0
}
