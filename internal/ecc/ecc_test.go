package ecc

import (
	"slices"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func TestAllOnPath(t *testing.T) {
	g := gen.Path(5) // eccs: 4 3 2 3 4
	want := []int32{4, 3, 2, 3, 4}
	got := All(g, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ecc = %v, want %v", got, want)
		}
	}
}

func TestAllOnStar(t *testing.T) {
	g := gen.Star(6)
	eccs := All(g, 2)
	if eccs[0] != 1 {
		t.Errorf("hub ecc = %d, want 1", eccs[0])
	}
	for v := 1; v < 6; v++ {
		if eccs[v] != 2 {
			t.Errorf("leaf %d ecc = %d, want 2", v, eccs[v])
		}
	}
}

func TestComputeEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if eccs := All(g, 0); len(eccs) != 0 {
		t.Fatalf("empty: eccs = %v", eccs)
	}
	if d := Diameter(g, 0); d != 0 {
		t.Fatalf("empty: diameter = %d", d)
	}
}

// TestTheorem1AdjacentEccsDifferByAtMostOne property-checks the paper's
// Theorem 1 on random connected graphs.
func TestTheorem1AdjacentEccsDifferByAtMostOne(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(80+int(seed*7)%80, int(seed*13)%100, seed)
		eccs := All(g, 0)
		for _, e := range g.Edges() {
			d := eccs[e.A] - eccs[e.B]
			if d < -1 || d > 1 {
				t.Fatalf("seed %d: edge %d-%d has eccs %d vs %d (Theorem 1 violated)",
					seed, e.A, e.B, eccs[e.A], eccs[e.B])
			}
		}
	}
}

// TestTheorem2AtLeastTwoPeripheralVertices property-checks Theorem 2:
// every connected graph with ≥2 vertices has ≥2 vertices of maximum
// eccentricity.
func TestTheorem2AtLeastTwoPeripheralVertices(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(30+int(seed*11)%100, int(seed*5)%60, seed+100)
		eccs := All(g, 0)
		diam := slices.Max(eccs)
		var periphery []graph.Vertex
		for v, e := range eccs {
			if e == diam {
				periphery = append(periphery, graph.Vertex(v))
			}
		}
		if len(periphery) < 2 {
			t.Fatalf("seed %d: periphery %v has fewer than 2 vertices (Theorem 2 violated)",
				seed, periphery)
		}
	}
}

// TestTheorem3RadiusAtLeastHalfDiameter property-checks Theorem 3:
// min ecc ≥ diam/2.
func TestTheorem3RadiusAtLeastHalfDiameter(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := gen.RandomConnected(30+int(seed*9)%100, int(seed*3)%60, seed+200)
		eccs := All(g, 0)
		if radius, diam := slices.Min(eccs), slices.Max(eccs); 2*radius < diam {
			t.Fatalf("seed %d: radius %d < diameter %d / 2 (Theorem 3 violated)",
				seed, radius, diam)
		}
	}
}

func TestDiameterMatchesComputeAcrossWorkers(t *testing.T) {
	g := gen.RandomConnected(150, 80, 7)
	d1 := Diameter(g, 1)
	d4 := Diameter(g, 4)
	if d1 != d4 {
		t.Fatalf("worker counts disagree: %d vs %d", d1, d4)
	}
	if d1 != slices.Max(All(g, 0)) {
		t.Fatalf("Diameter and the largest of All's eccentricities disagree")
	}
}

func TestDisconnectedEccsArePerComponent(t *testing.T) {
	g := gen.Disjoint(gen.Path(4), gen.Cycle(6))
	eccs := All(g, 0)
	if eccs[0] != 3 { // path endpoint
		t.Errorf("path endpoint ecc = %d, want 3", eccs[0])
	}
	for v := 4; v < 10; v++ {
		if eccs[v] != 3 { // cycle of 6: ecc 3 everywhere
			t.Errorf("cycle vertex %d ecc = %d, want 3", v, eccs[v])
		}
	}
}
