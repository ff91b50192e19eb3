package bfs

import (
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// forcedParallelBottomUp returns an engine that runs every level of a
// full traversal as the parallel bottom-up scan: huge α/β enter bottom-up
// at the first level and never leave, and Workers=2 with a zero cutoff
// dispatches the scan whatever n.
func forcedParallelBottomUp(g *graph.Graph) *Engine {
	e := New(g, 2)
	e.setAlphaBeta(1<<30, 1<<30)
	e.setSerialCutoff(0)
	return e
}

// checkBottomUp runs Distances and Eccentricity from src on e and compares
// the distances, the eccentricity and the last-frontier set with a queue
// BFS.
func checkBottomUp(t *testing.T, what string, e *Engine, src graph.Vertex) {
	t.Helper()
	g := e.Graph()
	want := refDistances(g, src)
	wantEcc := refEcc(want)
	dist := make([]int32, g.NumVertices())
	if got := e.Distances(src, dist); got != wantEcc {
		t.Fatalf("%s: Distances(%d) returned ecc %d, want %d", what, src, got, wantEcc)
	}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("%s: dist[%d] from %d = %d, want %d", what, v, src, dist[v], want[v])
		}
	}
	if got := e.Eccentricity(src); got != wantEcc {
		t.Fatalf("%s: Eccentricity(%d) = %d, want %d", what, src, got, wantEcc)
	}
	inLast := make([]bool, g.NumVertices())
	for _, v := range e.LastFrontier() {
		if inLast[v] || want[v] != wantEcc {
			t.Fatalf("%s: last frontier from %d holds %d (distance %d, ecc %d, repeated %v)",
				what, src, v, want[v], wantEcc, inLast[v])
		}
		inLast[v] = true
	}
	for v, d := range want {
		if d == wantEcc && !inLast[v] {
			t.Fatalf("%s: vertex %d at distance %d from %d missing from the last frontier", what, v, d, src)
		}
	}
}

// TestParallelBottomUpDefersMarking pins deferred marking in the parallel
// bottom-up scan. On a path or a ladder scanned in ascending vertex order,
// a joiner marked inside the scan would let its higher neighbour join the
// same level through it, so whole runs of the path would collapse into one
// level; every vertex must instead land at its queue-BFS distance.
func TestParallelBottomUpDefersMarking(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":   gen.Path(2500),
		"ladder": gen.Grid2D(1200, 2),
	} {
		e := forcedParallelBottomUp(g)
		n := g.NumVertices()
		for _, src := range []graph.Vertex{0, graph.Vertex(n / 2), graph.Vertex(n - 1)} {
			checkBottomUp(t, name, e, src)
			if s := e.LastTraversalSwitches(); s != 1 {
				t.Fatalf("%s: %d direction switches from %d, want 1 (bottom-up throughout)", name, s, src)
			}
		}
	}
}

// FuzzBottomUpMatchesReference checks the parallel bottom-up scan on small
// random graphs: eccentricity, distances and the last-frontier set of
// every traversal must match a queue BFS, twice per engine so the second
// round runs on reused marks.
func FuzzBottomUpMatchesReference(f *testing.F) {
	// The graph has 1 + size%64 vertices.
	f.Add([]byte{0, 1, 1, 2, 2, 3}, uint8(3), uint8(0))                                     // path
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5}, uint8(7), uint8(5))                         // star + tail, isolated 6, 7
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}, uint8(6), uint8(3))             // 7-cycle
	f.Add([]byte{0, 1, 1, 2, 2, 3, 0, 4, 4, 5, 5, 6, 6, 7, 1, 5, 2, 6}, uint8(7), uint8(7)) // ladder
	f.Add([]byte{}, uint8(0), uint8(0))                                                     // single vertex
	f.Fuzz(func(t *testing.T, edges []byte, size, src uint8) {
		if len(edges) > 512 {
			return
		}
		n := 1 + int(size)%64
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(graph.Vertex(int(edges[i])%n), graph.Vertex(int(edges[i+1])%n))
		}
		e := forcedParallelBottomUp(b.Build())
		s := graph.Vertex(int(src) % n)
		for round := 0; round < 2; round++ {
			checkBottomUp(t, "fuzz", e, s)
		}
	})
}
