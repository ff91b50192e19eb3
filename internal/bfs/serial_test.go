package bfs

import (
	"slices"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// refLevels is a plain queue BFS from a seed set: seeds (duplicates
// dropped, first occurrence kept) form level 0, and each later level lists
// its vertices in first-discovery order, scanning the previous level in
// order and each adjacency list in CSR order. It stops after maxLevels
// levels (maxLevels < 0: unbounded) or at the first empty level, and
// returns levels 1.. only.
func refLevels(g *graph.Graph, seeds []graph.Vertex, maxLevels int) [][]graph.Vertex {
	seen := make([]bool, g.NumVertices())
	var cur []graph.Vertex
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			cur = append(cur, s)
		}
	}
	var levels [][]graph.Vertex
	for len(cur) > 0 && (maxLevels < 0 || len(levels) < maxLevels) {
		var next []graph.Vertex
		for _, v := range cur {
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// partialLevels runs Partial and copies out every level's frontier.
func partialLevels(t *testing.T, e *Engine, seeds []graph.Vertex, maxLevels int32) (int32, [][]graph.Vertex) {
	t.Helper()
	var levels [][]graph.Vertex
	n := e.Partial(seeds, maxLevels, func(level int32, frontier []graph.Vertex) {
		if int(level) != len(levels)+1 {
			t.Fatalf("Partial reported level %d after %d levels", level, len(levels))
		}
		levels = append(levels, slices.Clone(frontier))
	})
	return n, levels
}

// checkLevels fails unless got equals want level by level, order included.
func checkLevels(t *testing.T, what string, got, want [][]graph.Vertex) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: level %d frontier %v, want %v", what, i+1, got[i], want[i])
		}
	}
}

// isolatedExtras returns a graph with a path on 0..9, a 10-cycle on
// 20..29, a triangle on 30..32, and every other vertex of 0..39 isolated.
func isolatedExtras() *graph.Graph {
	b := graph.NewBuilder(40)
	for v := 0; v < 9; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v+1))
	}
	for v := 20; v < 30; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(20+(v-19)%10))
	}
	b.AddEdge(30, 31)
	b.AddEdge(31, 32)
	b.AddEdge(32, 30)
	return b.Build()
}

// starPendants returns a star on centre 0 and leaves 1..leaves, each leaf
// i carrying one pendant vertex leaves+i: from the centre, a level of
// every leaf, then a level of every pendant expanded from that frontier.
func starPendants(leaves int) *graph.Graph {
	b := graph.NewBuilder(2*leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.Vertex(i))
		b.AddEdge(graph.Vertex(i), graph.Vertex(leaves+i))
	}
	return b.Build()
}

// TestSerialFrontierOrderMatchesQueueBFS pins the top-down kernel's output
// order, not just the level count: every level of Partial (single and
// multi-source) and of the full top-down traversal behind Eccentricity and
// Distances, the last frontier each of those leaves, and the levels
// Distances writes all equal a plain queue BFS on grid, subdivided road,
// core-whiskers and disconnected inputs at Workers=1, and on a star with
// pendants at Workers=4, whose frontiers of 1100 leaves exceed the
// engine's serial cutoff.
func TestSerialFrontierOrderMatchesQueueBFS(t *testing.T) {
	cases := map[string]struct {
		g       *graph.Graph
		workers int
	}{
		"grid":          {gen.Grid2D(23, 17), 1},
		"road":          {gen.Subdivide(gen.RoadNetwork(20, 20, 0.30, 5), 3), 1},
		"core-whiskers": {gen.CoreWhiskers(2000, 4, 0.20, 6, 7), 1},
		"isolated":      {isolatedExtras(), 1},
		"star-pendants": {starPendants(1100), 4},
	}
	for name, c := range cases {
		g := c.g
		n := g.NumVertices()
		e := New(g, c.workers)
		e.SetDirectionOptimized(false)
		dist := make([]int32, n)
		for _, src := range []graph.Vertex{0, graph.Vertex(n / 3), graph.Vertex(n - 1)} {
			want := refLevels(g, []graph.Vertex{src}, -1)
			levels, got := partialLevels(t, e, []graph.Vertex{src}, -1)
			checkLevels(t, name+" Partial", got, want)
			if int(levels) != len(want) {
				t.Fatalf("%s: Partial returned %d levels, want %d", name, levels, len(want))
			}
			var full [][]graph.Vertex
			e.run("ecc", []graph.Vertex{src}, -1, true, func(_ int32, frontier []graph.Vertex) {
				full = append(full, slices.Clone(frontier))
			})
			checkLevels(t, name+" full traversal", full, want)
			last := []graph.Vertex{src}
			if len(want) > 0 {
				last = want[len(want)-1]
			}
			if ecc := e.Eccentricity(src); int(ecc) != len(want) {
				t.Fatalf("%s: ecc(%d) = %d, want %d", name, src, ecc, len(want))
			}
			if !slices.Equal(e.LastFrontier(), last) {
				t.Fatalf("%s: last frontier of %d = %v, want %v", name, src, e.LastFrontier(), last)
			}
			if ecc := e.Distances(src, dist); int(ecc) != len(want) {
				t.Fatalf("%s: Distances from %d returned %d, want %d", name, src, ecc, len(want))
			}
			if !slices.Equal(e.LastFrontier(), last) {
				t.Fatalf("%s: Distances' last frontier of %d = %v, want %v", name, src, e.LastFrontier(), last)
			}
			for lvl, frontier := range want {
				for _, v := range frontier {
					if dist[v] != int32(lvl+1) {
						t.Fatalf("%s: dist[%d] from %d = %d, want %d", name, v, src, dist[v], lvl+1)
					}
				}
			}
		}
		seeds := []graph.Vertex{graph.Vertex(n - 1), 0, graph.Vertex(n / 2), 0}
		for _, maxLevels := range []int32{-1, 0, 1, 3} {
			_, got := partialLevels(t, e, seeds, maxLevels)
			checkLevels(t, name+" multi-source Partial", got, refLevels(g, seeds, int(maxLevels)))
		}
	}
}

// TestSerialLevelDiscoversEveryRemainingVertex covers a level whose
// frontier is every vertex not yet visited: a star from its centre and a
// complete graph, in adjacency order.
func TestSerialLevelDiscoversEveryRemainingVertex(t *testing.T) {
	for name, c := range map[string]struct {
		g   *graph.Graph
		src graph.Vertex
	}{
		"star":     {gen.Star(300), 0},
		"complete": {gen.Complete(40), 7},
	} {
		n := c.g.NumVertices()
		want := make([]graph.Vertex, 0, n-1)
		for v := 0; v < n; v++ {
			if graph.Vertex(v) != c.src {
				want = append(want, graph.Vertex(v))
			}
		}
		e := New(c.g, 1)
		levels, got := partialLevels(t, e, []graph.Vertex{c.src}, -1)
		checkLevels(t, name, got, [][]graph.Vertex{want})
		if levels != 1 {
			t.Fatalf("%s: Partial returned %d levels, want 1", name, levels)
		}
		e.SetDirectionOptimized(false)
		if ecc := e.Eccentricity(c.src); ecc != 1 || e.Reached() != int64(n) {
			t.Fatalf("%s: ecc %d reached %d, want 1 and %d", name, ecc, e.Reached(), n)
		}
		if !slices.Equal(e.LastFrontier(), want) {
			t.Fatalf("%s: last frontier %v, want %v", name, e.LastFrontier(), want)
		}
	}
}

// TestSerialLevelWithNoNewVertex covers a level that runs (a vertex is
// still unvisited, in another component) but whose every neighbour is
// already visited: the traversal must end on the previous level, whose
// frontier LastFrontier still reports.
func TestSerialLevelWithNoNewVertex(t *testing.T) {
	single := graph.NewBuilder(1).Build()
	for name, c := range map[string]struct {
		g     *graph.Graph
		src   graph.Vertex
		ecc   int32
		last  []graph.Vertex
		reach int64
	}{
		"complete+isolated": {gen.Disjoint(gen.Complete(6), single), 0, 1, []graph.Vertex{1, 2, 3, 4, 5}, 6},
		"star+isolated":     {gen.Disjoint(gen.Star(6), single), 2, 2, []graph.Vertex{1, 3, 4, 5}, 6},
	} {
		e := New(c.g, 1)
		e.SetDirectionOptimized(false)
		if ecc := e.Eccentricity(c.src); ecc != c.ecc || e.Reached() != c.reach {
			t.Fatalf("%s: ecc %d reached %d, want %d and %d", name, ecc, e.Reached(), c.ecc, c.reach)
		}
		if !slices.Equal(e.LastFrontier(), c.last) {
			t.Fatalf("%s: last frontier %v, want %v", name, e.LastFrontier(), c.last)
		}
		levels, got := partialLevels(t, e, []graph.Vertex{c.src}, -1)
		checkLevels(t, name+" Partial", got, refLevels(c.g, []graph.Vertex{c.src}, -1))
		if levels != c.ecc {
			t.Fatalf("%s: Partial returned %d levels, want %d", name, levels, c.ecc)
		}
	}
}

// TestPartialSeedsCoverAlmostEverything seeds Partial with every vertex
// but one (one level finds it) and with every vertex (no level runs).
func TestPartialSeedsCoverAlmostEverything(t *testing.T) {
	g := gen.Grid2D(9, 7)
	n := g.NumVertices()
	e := New(g, 1)
	for _, left := range []graph.Vertex{0, graph.Vertex(n / 2), graph.Vertex(n - 1)} {
		seeds := make([]graph.Vertex, 0, n)
		for v := n - 1; v >= 0; v-- { // descending, so seed order matters
			if graph.Vertex(v) != left {
				seeds = append(seeds, graph.Vertex(v))
			}
		}
		levels, got := partialLevels(t, e, seeds, -1)
		checkLevels(t, "all but one", got, [][]graph.Vertex{{left}})
		if levels != 1 || e.Reached() != int64(n) {
			t.Fatalf("all but %d: %d levels, reached %d; want 1 and %d", left, levels, e.Reached(), n)
		}
	}
	all := make([]graph.Vertex, n)
	for v := range all {
		all[v] = graph.Vertex(v)
	}
	levels, got := partialLevels(t, e, all, -1)
	if levels != 0 || len(got) != 0 || e.Reached() != int64(n) {
		t.Fatalf("every vertex seeded: %d levels %v, reached %d; want none and %d", levels, got, e.Reached(), n)
	}
}

// TestTopDownSerialStoresWithinUnvisited checks the kernel's buffer
// invariant directly: a level never stores past index unvisited (the
// vertices not yet reached when it starts), so an output capacity of
// unvisited+1 suffices. Two seeds of a complete graph make it tight: the
// last arc, back to the other seed, stores at index unvisited after the
// level has found every remaining vertex.
func TestTopDownSerialStoresWithinUnvisited(t *testing.T) {
	for name, c := range map[string]struct {
		g     *graph.Graph
		seeds []graph.Vertex
	}{
		"complete": {gen.Complete(12), []graph.Vertex{0, 1}},
		"star":     {gen.Star(20), []graph.Vertex{5}},
		"grid":     {gen.Grid2D(8, 8), []graph.Vertex{0, 63, 27}},
		"isolated": {isolatedExtras(), []graph.Vertex{4, 25}},
	} {
		g := c.g
		n := g.NumVertices()
		cnt := make([]uint32, n)
		const epoch = 1
		for _, s := range c.seeds {
			cnt[s] = epoch
		}
		want := refLevels(g, c.seeds, -1)
		in := slices.Clone(c.seeds)
		unvisited := n - len(c.seeds)
		for lvl := 0; ; lvl++ {
			out := topDownSerial(g.Offsets(), g.Targets(), cnt, epoch, in, make([]graph.Vertex, 0, unvisited+1))
			if len(out) == 0 {
				if lvl != len(want) {
					t.Fatalf("%s: ended after %d levels, want %d", name, lvl, len(want))
				}
				break
			}
			if lvl >= len(want) || !slices.Equal(out, want[lvl]) {
				t.Fatalf("%s: level %d = %v, want %v", name, lvl+1, out, want)
			}
			unvisited -= len(out)
			in = out
		}
	}
}

// FuzzPartialMatchesReference cross-checks Partial, the traversal behind
// Eliminate and Chain Processing, against refLevels on fuzzer-made graphs
// (pairs of bytes become edges over 48 vertices), seed sets (one byte per
// seed, duplicates allowed) and level limits (negative: unbounded): the
// level count and every level's frontier in order, on a fresh engine and
// again on the same engine, whose marks then carry a stale epoch.
func FuzzPartialMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3}, []byte{0}, int8(-1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5}, []byte{5, 5, 1}, int8(2))            // star + tail, duplicates
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{0, 2, 47}, int8(0))                       // matching + isolated seed
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}, []byte{0, 3}, int8(100)) // 7-cycle
	f.Add([]byte{}, []byte{}, int8(-5))                                              // no edges, no seeds
	f.Fuzz(func(t *testing.T, edges, seedBytes []byte, maxLevels int8) {
		const n = 48
		if len(edges) > 512 || len(seedBytes) > 2*n {
			return
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(graph.Vertex(edges[i]%n), graph.Vertex(edges[i+1]%n))
		}
		g := b.Build()
		seeds := make([]graph.Vertex, len(seedBytes))
		for i, s := range seedBytes {
			seeds[i] = graph.Vertex(s % n)
		}
		want := refLevels(g, seeds, int(maxLevels))
		e := New(g, 1)
		for round := 0; round < 2; round++ {
			levels, got := partialLevels(t, e, seeds, int32(maxLevels))
			if int(levels) != len(want) {
				t.Fatalf("round %d: %d levels, want %d (edges %v seeds %v max %d)",
					round, levels, len(want), g.Edges(), seeds, maxLevels)
			}
			checkLevels(t, "Partial", got, want)
		}
	})
}
