package baseline

import (
	"fmt"
	"testing"

	"fdiam/internal/ecc"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func TestFloydWarshallMatchesBruteForce(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0).Build(),
		"singleton":   graph.NewBuilder(1).Build(),
		"path":        gen.Path(70),   // > one 64-tile
		"cycle":       gen.Cycle(130), // > two tiles
		"grid":        gen.Grid2D(9, 11),
		"star":        gen.Star(100),
		"disjoint":    gen.Disjoint(gen.Path(40), gen.Cycle(50)),
		"isolated":    gen.Disjoint(gen.Path(10), graph.NewBuilder(5).Build()),
		"rand":        gen.RandomConnected(150, 100, 1),
		"powerlaw":    gen.BarabasiAlbert(200, 3, 2),
		"exact-tile":  gen.Path(64), // n == B edge case
		"tile-plus-1": gen.Path(65),
	}
	for name, g := range shapes {
		want := ecc.Diameter(g, 0)
		for _, workers := range []int{1, 4} {
			got := FloydWarshall(g, Options{Workers: workers})
			if got.Diameter != want {
				t.Errorf("%s (workers=%d): diameter %d, want %d", name, workers, got.Diameter, want)
			}
			if got.TimedOut {
				t.Errorf("%s: unexpected timeout", name)
			}
		}
	}
}

func TestFloydWarshallRandom(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := gen.RandomConnected(100+int(seed*37)%200, int(seed*13)%150, seed+30)
		want := ecc.Diameter(g, 0)
		got := FloydWarshall(g, Options{})
		if got.Diameter != want {
			t.Errorf("seed %d: %d, want %d", seed, got.Diameter, want)
		}
	}
}

func TestFloydWarshallRefusesHugeGraphs(t *testing.T) {
	old := MaxFloydWarshallVertices
	MaxFloydWarshallVertices = 100
	defer func() { MaxFloydWarshallVertices = old }()
	res := FloydWarshall(gen.Path(200), Options{})
	if !res.TimedOut {
		t.Error("oversized input not refused")
	}
}

func TestFloydWarshallTimeout(t *testing.T) {
	res := FloydWarshall(gen.RandomConnected(500, 400, 9), Options{Timeout: 1})
	if !res.TimedOut {
		t.Skip("too fast to trip a 1ns timeout (unlikely)")
	}
}

func BenchmarkFloydWarshall(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := gen.RandomConnected(n, 2*n, 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FloydWarshall(g, Options{})
			}
		})
	}
}
