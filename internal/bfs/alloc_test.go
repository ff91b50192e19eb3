package bfs

import (
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// TestSerialTraversalsAllocationFree pins the Workers=1 traversal entry
// points at zero allocations per call once the engine is warm. The grid
// runs top-down only; the Kronecker graph switches to bottom-up and back,
// so both serial kernels are covered. MultiSourceRun is left out: its
// pull step still allocates on each call.
func TestSerialTraversalsAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		switches bool
	}{
		{"grid", gen.Grid2D(200, 200), false},
		{"kron", gen.Kronecker(14, 16, 1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			e := New(g, 1)
			src := maxDegreeVertex(g)
			seeds := []graph.Vertex{src}
			dist := make([]int32, g.NumVertices())
			var reached int
			onLevel := func(_ int32, frontier []graph.Vertex) { reached += len(frontier) }

			// Warm the engine's buffers to their steady-state capacity.
			e.Distances(src, dist)
			e.Partial(seeds, -1, onLevel)
			e.Eccentricity(src)
			if got := e.LastTraversalSwitches() > 0; got != tc.switches {
				t.Fatalf("Eccentricity switched directions: %v, want %v", got, tc.switches)
			}

			for _, c := range []struct {
				name string
				fn   func()
			}{
				{"Eccentricity", func() { e.Eccentricity(src) }},
				{"Distances", func() { e.Distances(src, dist) }},
				{"Partial", func() { e.Partial(seeds, -1, onLevel) }},
			} {
				if allocs := testing.AllocsPerRun(5, c.fn); allocs != 0 {
					t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
				}
			}
		})
	}
}

// maxDegreeVertex returns the vertex of highest degree, which lies in the
// largest component of the generated graphs.
func maxDegreeVertex(g *graph.Graph) graph.Vertex {
	best := graph.Vertex(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.Vertex(v)) > g.Degree(best) {
			best = graph.Vertex(v)
		}
	}
	return best
}
