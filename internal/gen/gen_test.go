package gen

import (
	"testing"
	"testing/quick"

	"fdiam/internal/graph"
)

func TestDeterminism(t *testing.T) {
	builders := map[string]func() *graph.Graph{
		"er":   func() *graph.Graph { return ErdosRenyi(200, 400, 7) },
		"rmat": func() *graph.Graph { return RMAT(8, 8, DefaultRMAT, 7) },
		"kron": func() *graph.Graph { return Kronecker(8, 8, 7) },
		"ba":   func() *graph.Graph { return BarabasiAlbert(200, 3, 7) },
		"copy": func() *graph.Graph { return CopyModel(200, 4, 0.5, 7) },
		"ws":   func() *graph.Graph { return WattsStrogatz(200, 3, 0.2, 7) },
		"rgg":  func() *graph.Graph { return RandomGeometric(200, 0.08, 7) },
		"road": func() *graph.Graph { return RoadNetwork(15, 15, 0.2, 7) },
		"tree": func() *graph.Graph { return RandomTree(200, 7) },
		"conn": func() *graph.Graph { return RandomConnected(200, 100, 7) },
	}
	for name, build := range builders {
		a, b := build(), build()
		if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
			t.Errorf("%s: non-deterministic size", name)
			continue
		}
		ea, eb := a.Edges(), b.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				t.Errorf("%s: non-deterministic edge %d", name, i)
				break
			}
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", name, err)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := ErdosRenyi(100, 300, 1)
	b := ErdosRenyi(100, 300, 2)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) == len(eb) {
		same := true
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func isConnected(g *graph.Graph) bool {
	return graph.ConnectedComponents(g).IsConnected()
}

func TestConnectedGenerators(t *testing.T) {
	cases := map[string]*graph.Graph{
		"tree":  RandomTree(500, 3),
		"conn":  RandomConnected(500, 200, 4),
		"road":  RoadNetwork(25, 20, 0.1, 5),
		"ba":    BarabasiAlbert(500, 2, 6),
		"copy":  CopyModel(500, 3, 0.6, 7),
		"path":  Path(100),
		"cycle": Cycle(100),
		"star":  Star(100),
		"grid":  Grid2D(10, 13),
		"tri":   TriangularGrid(9, 9),
		"btree": BinaryTree(8),
		"cater": Caterpillar(30, 2),
		"lolli": Lollipop(10, 10),
		"barb":  Barbell(8, 6),
	}
	for name, g := range cases {
		if !isConnected(g) {
			t.Errorf("%s: not connected", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestShapeCounts(t *testing.T) {
	if g := Path(10); g.NumEdges() != 9 {
		t.Errorf("path edges = %d", g.NumEdges())
	}
	if g := Cycle(10); g.NumEdges() != 10 {
		t.Errorf("cycle edges = %d", g.NumEdges())
	}
	if g := Star(10); g.NumEdges() != 9 || g.Degree(0) != 9 {
		t.Errorf("star wrong")
	}
	if g := Complete(6); g.NumEdges() != 15 {
		t.Errorf("K6 edges = %d", g.NumEdges())
	}
	if g := Grid2D(4, 5); g.NumVertices() != 20 || g.NumEdges() != int64(3*5+4*4) {
		t.Errorf("grid: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g := BinaryTree(4); g.NumVertices() != 15 || g.NumEdges() != 14 {
		t.Errorf("btree: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g := Caterpillar(5, 2); g.NumVertices() != 15 || g.NumEdges() != 14 {
		t.Errorf("caterpillar: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g := Lollipop(5, 3); g.NumVertices() != 8 || g.NumEdges() != 10+3 {
		t.Errorf("lollipop: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestRMATSize(t *testing.T) {
	g := RMAT(10, 8, DefaultRMAT, 1)
	if g.NumVertices() != 1024 {
		t.Fatalf("n = %d, want 1024", g.NumVertices())
	}
	// Dedup loses some edges but most must survive.
	if g.NumEdges() < int64(8*1024/2) {
		t.Errorf("suspiciously few edges: %d", g.NumEdges())
	}
}

func TestKroneckerIsSkewed(t *testing.T) {
	g := Kronecker(10, 16, 2)
	s := graph.ComputeStats(g)
	if s.Degree0 == 0 {
		t.Error("Graph500 Kronecker should produce isolated vertices")
	}
	if float64(s.MaxDegree) < 8*s.AvgDegree {
		t.Errorf("expected a skewed degree distribution: max %d vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 3)
	s := graph.ComputeStats(g)
	if s.AvgDegree < 3 || s.AvgDegree > 8 {
		t.Errorf("avg degree %.1f out of expected band", s.AvgDegree)
	}
	if s.MaxDegree < 20 {
		t.Errorf("hub degree %d too small for preferential attachment", s.MaxDegree)
	}
}

func TestRandomGeometricDegreeMatchesTarget(t *testing.T) {
	n, target := 2000, 8.0
	g := RandomGeometric(n, RadiusForDegree(n, target), 4)
	avg := g.AvgDegree()
	// Boundary effects lower the expectation a bit; allow a wide band.
	if avg < target/2 || avg > target*1.5 {
		t.Errorf("avg degree %.2f, target %.1f", avg, target)
	}
}

func TestRoadNetworkShape(t *testing.T) {
	g := RoadNetwork(30, 30, 0.15, 9)
	s := graph.ComputeStats(g)
	if s.Components != 1 {
		t.Fatalf("road network disconnected: %d components", s.Components)
	}
	if s.AvgDegree < 1.9 || s.AvgDegree > 3.2 {
		t.Errorf("avg degree %.2f outside road-map band", s.AvgDegree)
	}
	if s.MaxDegree > 4 {
		t.Errorf("grid-based road has degree %d > 4", s.MaxDegree)
	}
}

func TestWithPendantsAndChains(t *testing.T) {
	base := Cycle(20)
	p := WithPendants(base, 5, 1)
	if p.NumVertices() != 25 || p.NumEdges() != 25 {
		t.Fatalf("pendants: n=%d m=%d", p.NumVertices(), p.NumEdges())
	}
	deg1 := 0
	for v := 0; v < p.NumVertices(); v++ {
		if p.Degree(graph.Vertex(v)) == 1 {
			deg1++
		}
	}
	if deg1 != 5 {
		t.Errorf("pendants: %d degree-1 vertices, want 5", deg1)
	}

	c := WithChains(base, 2, 4, 2)
	if c.NumVertices() != 28 {
		t.Fatalf("chains: n=%d", c.NumVertices())
	}
	if !isConnected(c) {
		t.Error("chains disconnected the graph")
	}
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Path(5), Cycle(6))
	if g.NumVertices() != 11 || g.NumEdges() != 4+6 {
		t.Fatalf("disjoint: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	cc := graph.ConnectedComponents(g)
	if cc.Count != 2 {
		t.Fatalf("components = %d", cc.Count)
	}
}

func TestRNGProperties(t *testing.T) {
	r := NewRNG(42)
	// Float64 in [0,1).
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
	// Intn in range.
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Perm is a permutation.
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at %d", v)
		}
		seen[v] = true
	}
	// Norm has plausible moments.
	var sum, sum2 float64
	const k = 20000
	for i := 0; i < k; i++ {
		x := r.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / k
	variance := sum2/k - mean*mean
	if mean < -0.05 || mean > 0.05 || variance < 0.9 || variance > 1.1 {
		t.Errorf("Norm moments off: mean=%f var=%f", mean, variance)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 10; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTinyGraphGenerators(t *testing.T) {
	// Degenerate sizes must not panic.
	for _, g := range []*graph.Graph{
		Path(0), Path(1), Cycle(0), Star(1), Complete(1),
		Grid2D(1, 1), BinaryTree(1), BarabasiAlbert(1, 3, 1),
		CopyModel(1, 3, 0.5, 1), RandomTree(1, 1), RandomConnected(1, 5, 1),
		WattsStrogatz(1, 0, 0.5, 1), ErdosRenyi(1, 5, 1),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("tiny graph invalid: %v", err)
		}
	}
	if g := Cycle(1); g.NumEdges() != 0 {
		t.Error("1-cycle should have no edges (self-loop dropped)")
	}
	if g := Cycle(2); g.NumEdges() != 1 {
		t.Error("2-cycle should collapse to a single edge")
	}
}

func TestSubdivideScalesDistancesExactly(t *testing.T) {
	// Subdividing every edge into k parts multiplies every pairwise
	// distance — hence the diameter — by exactly k.
	for _, k := range []int{2, 3, 5} {
		base := RandomConnected(40, 20, uint64(k))
		sub := Subdivide(base, k)
		wantN := base.NumVertices() + int(base.NumEdges())*(k-1)
		if sub.NumVertices() != wantN {
			t.Fatalf("k=%d: n=%d, want %d", k, sub.NumVertices(), wantN)
		}
		if sub.NumEdges() != base.NumEdges()*int64(k) {
			t.Fatalf("k=%d: m=%d, want %d", k, sub.NumEdges(), base.NumEdges()*int64(k))
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	g := Path(5)
	if Subdivide(g, 1) != g {
		t.Error("k=1 must return the graph unchanged")
	}
}

func TestCoreWhiskersShape(t *testing.T) {
	n, k, depth := 20000, 6, 9
	g := CoreWhiskers(n, k, 0.15, depth, 42)
	if g.NumVertices() != n {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !isConnected(g) {
		t.Fatal("core+whiskers must be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	// Power-law core: skewed degrees.
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Errorf("not skewed: max %d avg %.1f", s.MaxDegree, s.AvgDegree)
	}
	// Whiskers create degree-1 tips.
	if s.Degree1 == 0 {
		t.Error("no degree-1 whisker tips")
	}
	// Determinism.
	h := CoreWhiskers(n, k, 0.15, depth, 42)
	if h.NumArcs() != g.NumArcs() {
		t.Error("non-deterministic")
	}
}

func TestCoreWhiskersTiny(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10} {
		g := CoreWhiskers(n, 3, 0.5, 4, 1)
		if g.NumVertices() != n {
			t.Fatalf("n=%d: got %d vertices", n, g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
