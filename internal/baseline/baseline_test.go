package baseline

import (
	"fmt"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

type algo struct {
	name string
	run  func(*graph.Graph, Options) Result
}

var algos = []algo{
	{"ifub", IFUB},
	{"bounding", Bounding},
	{"takeskosters", TakesKosters},
	{"naive", Naive},
}

func checkAll(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := ecc.Diameter(g, 0)
	for _, a := range algos {
		for _, workers := range []int{1, 4} {
			got := a.run(g, Options{Workers: workers})
			if got.Diameter != want {
				t.Errorf("%s/%s(workers=%d): diameter = %d, want %d", name, a.name, workers, got.Diameter, want)
			}
			if got.TimedOut {
				t.Errorf("%s/%s: unexpected timeout", name, a.name)
			}
		}
	}
}

func TestBaselinesKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.NewBuilder(0).Build()},
		{"singleton", graph.NewBuilder(1).Build()},
		{"edge", gen.Path(2)},
		{"path50", gen.Path(50)},
		{"cycle33", gen.Cycle(33)},
		{"cycle34", gen.Cycle(34)},
		{"star20", gen.Star(20)},
		{"complete10", gen.Complete(10)},
		{"grid7x9", gen.Grid2D(7, 9)},
		{"tree5", gen.BinaryTree(5)},
		{"lollipop", gen.Lollipop(6, 9)},
		{"barbell", gen.Barbell(5, 4)},
		{"caterpillar", gen.Caterpillar(12, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAll(t, c.name, c.g) })
	}
}

func TestBaselinesRandom(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 20 + int(seed*11)%120
		g := gen.RandomConnected(n, int(seed*5)%50, seed)
		checkAll(t, fmt.Sprintf("rand-%d", seed), g)
	}
}

func TestBaselinesDisconnected(t *testing.T) {
	cases := []*graph.Graph{
		gen.Disjoint(gen.Path(12), gen.Cycle(20)),
		gen.Disjoint(gen.Star(8), graph.NewBuilder(4).Build()),
		gen.Disjoint(gen.RandomConnected(30, 10, 1), gen.RandomTree(25, 2)),
	}
	for i, g := range cases {
		want := ecc.Diameter(g, 0)
		for _, a := range algos {
			got := a.run(g, Options{Workers: 1})
			if got.Diameter != want {
				t.Errorf("case %d/%s: diameter = %d, want %d", i, a.name, got.Diameter, want)
			}
			if !got.Infinite {
				t.Errorf("case %d/%s: expected Infinite", i, a.name)
			}
		}
	}
}

func TestBaselinesPowerLaw(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 7)
	checkAll(t, "ba", g)
	g2 := gen.RMAT(8, 6, gen.DefaultRMAT, 8)
	checkAll(t, "rmat", g2)
}

func TestSweepBoundsAreValidLowerBounds(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(60+int(seed*9)%100, int(seed*3)%40, seed+50)
		diam := ecc.Diameter(g, 0)
		start := g.MaxDegreeVertex()
		two := TwoSweepLB(g, start, Options{Workers: 1})
		four, center := FourSweepLB(g, start, Options{Workers: 1})
		if two > diam || two < 1 {
			t.Errorf("seed %d: 2-sweep bound %d outside (0, %d]", seed, two, diam)
		}
		if four > diam || four < two/1 && four < 1 {
			t.Errorf("seed %d: 4-sweep bound %d outside (0, %d]", seed, four, diam)
		}
		if int(center) >= g.NumVertices() {
			t.Errorf("seed %d: invalid center %d", seed, center)
		}
	}
}

func TestIFUBTraversalAccounting(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 9)
	res := IFUB(g, Options{Workers: 1})
	if res.BFSTraversals < 5 { // component scan + 4-sweep alone is ≥ 6
		t.Errorf("implausible traversal count %d", res.BFSTraversals)
	}
	if res.BFSTraversals > int64(g.NumVertices()+10) {
		t.Errorf("traversal count %d exceeds vertex count", res.BFSTraversals)
	}
}

func TestBoundingFewerTraversalsThanNaive(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 11)
	bound := Bounding(g, Options{Workers: 1})
	if bound.BFSTraversals >= int64(g.NumVertices()) {
		t.Errorf("bounding used %d traversals on %d vertices — pruning is broken",
			bound.BFSTraversals, g.NumVertices())
	}
}

func TestBaselineTimeout(t *testing.T) {
	g := gen.Cycle(5000)
	for _, a := range algos {
		res := a.run(g, Options{Workers: 1, Timeout: 1})
		if !res.TimedOut {
			t.Errorf("%s: expected timeout with 1ns budget", a.name)
		}
	}
}
