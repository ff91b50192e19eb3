package ecc

import (
	"context"
	"fmt"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func checkBoundedAll(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	want := All(g, 0)
	for _, workers := range []int{1, 4} {
		got := BoundedAll(context.Background(), g, workers)
		for v := range want {
			if got.Eccs[v] != want[v] {
				t.Errorf("%s (workers=%d): ecc(%d) = %d, want %d",
					name, workers, v, got.Eccs[v], want[v])
				return
			}
		}
		nonIsolated := int64(0)
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(graph.Vertex(v)) > 0 {
				nonIsolated++
			}
		}
		if got.BFSTraversals > nonIsolated {
			t.Errorf("%s: %d traversals for %d non-isolated vertices", name, got.BFSTraversals, nonIsolated)
		}
	}
}

func TestBoundedAllShapes(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"empty":     graph.NewBuilder(0).Build(),
		"isolated":  graph.NewBuilder(4).Build(),
		"path":      gen.Path(30),
		"cycle":     gen.Cycle(31),
		"star":      gen.Star(25),
		"grid":      gen.Grid2D(7, 8),
		"tree":      gen.BinaryTree(6),
		"lollipop":  gen.Lollipop(6, 8),
		"disjoint":  gen.Disjoint(gen.Path(9), gen.Cycle(12)),
		"whiskers":  gen.CoreWhiskers(300, 4, 0.3, 8, 2),
		"complete":  gen.Complete(12),
		"barbell":   gen.Barbell(5, 6),
		"rmat":      gen.RMAT(8, 5, gen.DefaultRMAT, 3),
		"road":      gen.RoadNetwork(12, 12, 0.3, 4),
		"geometric": gen.RandomGeometric(250, gen.RadiusForDegree(250, 7), 5),
	}
	for name, g := range shapes {
		checkBoundedAll(t, name, g)
	}
}

func TestBoundedAllRandom(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		g := gen.RandomConnected(60+int(seed*19)%150, int(seed*11)%100, seed)
		checkBoundedAll(t, fmt.Sprintf("rand-%d", seed), g)
	}
}

func TestBoundedAllIsFrugalOnCorePeriphery(t *testing.T) {
	// The selling point: resolving all n eccentricities in notably fewer
	// than n traversals. Unlike the diameter-only problem, every vertex
	// must have its bounds meet, so the savings are a constant factor
	// (Takes & Kosters report similar ratios), not orders of magnitude.
	g := gen.CoreWhiskers(8000, 6, 0.15, 9, 7)
	res := BoundedAll(context.Background(), g, 0)
	if res.BFSTraversals > int64(g.NumVertices())/2 {
		t.Errorf("BoundedAll used %d traversals on %d vertices — bounds are not pruning",
			res.BFSTraversals, g.NumVertices())
	}
}

func TestFastInfoMatchesCompute(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.RandomConnected(120, int(seed*31)%120, seed+60)
		slow := Compute(g, 0)
		fast := FastInfo(context.Background(), g, 0)
		if slow.Diameter != fast.Diameter || slow.Radius != fast.Radius {
			t.Fatalf("seed %d: (diam,radius) fast (%d,%d) vs slow (%d,%d)",
				seed, fast.Diameter, fast.Radius, slow.Diameter, slow.Radius)
		}
		if len(slow.Center) != len(fast.Center) || len(slow.Periphery) != len(fast.Periphery) {
			t.Fatalf("seed %d: center/periphery sizes differ", seed)
		}
		for i := range slow.Center {
			if slow.Center[i] != fast.Center[i] {
				t.Fatalf("seed %d: center differs", seed)
			}
		}
		for i := range slow.Periphery {
			if slow.Periphery[i] != fast.Periphery[i] {
				t.Fatalf("seed %d: periphery differs", seed)
			}
		}
	}
}

func TestFastInfoEmpty(t *testing.T) {
	info := FastInfo(context.Background(), graph.NewBuilder(0).Build(), 0)
	if info.Diameter != 0 || info.Radius != 0 || info.Center != nil {
		t.Fatalf("empty FastInfo: %+v", info)
	}
}

func TestAverageDistanceExactOnPath(t *testing.T) {
	// Path on 4 vertices: ordered pairs at distances 1,2,3 are 6,4,2.
	s := AverageDistance(gen.Path(4), 0, 0, 1)
	if !s.Exact || s.Pairs != 12 {
		t.Fatalf("pairs = %d exact=%v", s.Pairs, s.Exact)
	}
	want := float64(6*1+4*2+2*3) / 12
	if s.Mean != want {
		t.Fatalf("mean = %f, want %f", s.Mean, want)
	}
	if s.Histogram[1] != 6 || s.Histogram[2] != 4 || s.Histogram[3] != 2 {
		t.Fatalf("histogram %v", s.Histogram)
	}
}

func TestAverageDistanceCompleteGraph(t *testing.T) {
	s := AverageDistance(gen.Complete(8), 0, 0, 1)
	if s.Mean != 1 || s.Pairs != 8*7 {
		t.Fatalf("K8: mean %f pairs %d", s.Mean, s.Pairs)
	}
}

func TestAverageDistanceSampledApproximatesExact(t *testing.T) {
	g := gen.RandomConnected(800, 600, 21)
	exact := AverageDistance(g, 0, 0, 0)
	sampled := AverageDistance(g, 200, 7, 0)
	if sampled.Exact {
		t.Fatal("sampled run flagged exact")
	}
	if sampled.Sources != 200 {
		t.Fatalf("sources = %d", sampled.Sources)
	}
	rel := (sampled.Mean - exact.Mean) / exact.Mean
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("sampled mean %f vs exact %f (off by %.0f%%)", sampled.Mean, exact.Mean, rel*100)
	}
}

func TestAverageDistanceDegenerate(t *testing.T) {
	if s := AverageDistance(graph.NewBuilder(0).Build(), 0, 0, 1); s.Pairs != 0 || s.Mean != 0 {
		t.Fatal("empty graph")
	}
	if s := AverageDistance(graph.NewBuilder(5).Build(), 0, 0, 1); s.Pairs != 0 {
		t.Fatal("edgeless graph has no pairs")
	}
	// Disconnected: only intra-component pairs count.
	s := AverageDistance(gen.Disjoint(gen.Path(2), gen.Path(2)), 0, 0, 1)
	if s.Pairs != 4 || s.Mean != 1 {
		t.Fatalf("disjoint edges: pairs=%d mean=%f", s.Pairs, s.Mean)
	}
}

func BenchmarkBoundedAll(b *testing.B) {
	g := gen.CoreWhiskers(1<<13, 6, 0.15, 9, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BoundedAll(context.Background(), g, 0)
	}
}

func BenchmarkBruteForceAll(b *testing.B) {
	g := gen.CoreWhiskers(1<<11, 6, 0.15, 9, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		All(g, 0)
	}
}

// Regression: an isolated vertex (eccentricity 0) must not pollute the
// radius/center/periphery aggregates — before the largest-component
// restriction, any stray vertex reported Radius=0 with itself as the
// "center" of the graph.
func TestInfoAggregatesIgnoreIsolatedVertex(t *testing.T) {
	// Path 0–4 (diameter 4, radius 2, center {2}) plus isolated vertex 5.
	g := gen.Disjoint(gen.Path(5), graph.NewBuilder(1).Build())
	for name, info := range map[string]Info{
		"Compute":  Compute(g, 1),
		"FastInfo": FastInfo(context.Background(), g, 1),
	} {
		if info.Diameter != 4 {
			t.Errorf("%s: diameter = %d, want 4", name, info.Diameter)
		}
		if info.Radius != 2 {
			t.Errorf("%s: radius = %d, want 2 (isolated vertex polluted the aggregate)", name, info.Radius)
		}
		if len(info.Center) != 1 || info.Center[0] != 2 {
			t.Errorf("%s: center = %v, want [2]", name, info.Center)
		}
		if len(info.Periphery) != 2 || info.Periphery[0] != 0 || info.Periphery[1] != 4 {
			t.Errorf("%s: periphery = %v, want [0 4]", name, info.Periphery)
		}
		if info.Eccs[5] != 0 {
			t.Errorf("%s: isolated vertex ecc = %d, want 0 (still reported in Eccs)", name, info.Eccs[5])
		}
	}
}

// Regression: a small secondary component must be excluded from the
// aggregates the same way an isolated vertex is.
func TestInfoAggregatesUseLargestComponent(t *testing.T) {
	// Path on 9 vertices (radius 4, center {4}) plus a 3-path whose middle
	// vertex has eccentricity 1 < 4.
	g := gen.Disjoint(gen.Path(9), gen.Path(3))
	for name, info := range map[string]Info{
		"Compute":  Compute(g, 1),
		"FastInfo": FastInfo(context.Background(), g, 1),
	} {
		if info.Diameter != 8 {
			t.Errorf("%s: diameter = %d, want 8", name, info.Diameter)
		}
		if info.Radius != 4 {
			t.Errorf("%s: radius = %d, want 4 (secondary component polluted the aggregate)", name, info.Radius)
		}
		if len(info.Center) != 1 || info.Center[0] != 4 {
			t.Errorf("%s: center = %v, want [4]", name, info.Center)
		}
	}
}

// Regression: BoundedAll used to be uncancellable. A cancelled context must
// stop it at a traversal boundary, with the unresolved entries reported as
// valid lower bounds and the result marked Truncated.
func TestBoundedAllCancelled(t *testing.T) {
	g := gen.Grid2D(20, 20)
	want := All(g, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := BoundedAll(ctx, g, 1)
	if !res.Truncated {
		t.Fatal("cancelled BoundedAll did not report Truncated")
	}
	if res.BFSTraversals != 0 {
		t.Fatalf("pre-cancelled run performed %d traversals", res.BFSTraversals)
	}
	if len(res.Eccs) != g.NumVertices() {
		t.Fatalf("Eccs length %d, want %d", len(res.Eccs), g.NumVertices())
	}
	for v := range res.Eccs {
		if res.Eccs[v] > want[v] {
			t.Fatalf("truncated ecc(%d) = %d exceeds true eccentricity %d — not a lower bound",
				v, res.Eccs[v], want[v])
		}
	}
	// An uncancelled context still resolves exactly.
	full := BoundedAll(context.Background(), g, 1)
	if full.Truncated {
		t.Fatal("uncancelled run reported Truncated")
	}
}

// FastInfo carries BoundedAll's verdict: its traversal count, and Truncated
// when the context was cancelled.
func TestFastInfoReportsTraversalsAndTruncation(t *testing.T) {
	g := gen.CoreWhiskers(2000, 4, 0.2, 6, 3)
	info := FastInfo(context.Background(), g, 1)
	if want := BoundedAll(context.Background(), g, 1).BFSTraversals; info.BFSTraversals != want || want == 0 {
		t.Fatalf("FastInfo BFSTraversals = %d, BoundedAll spent %d", info.BFSTraversals, want)
	}
	if info.Truncated {
		t.Fatal("uncancelled FastInfo reported Truncated")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if info := FastInfo(ctx, g, 1); !info.Truncated {
		t.Fatal("cancelled FastInfo did not report Truncated")
	}
}
