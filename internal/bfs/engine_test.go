package bfs

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// refDistances is an independent, dead-simple reference BFS.
func refDistances(g *graph.Graph, src graph.Vertex) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
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

func refEcc(dist []int32) int32 {
	var e int32
	for _, d := range dist {
		if d > e {
			e = d
		}
	}
	return e
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":      gen.Path(50),
		"cycle":     gen.Cycle(64),
		"star":      gen.Star(100),
		"grid":      gen.Grid2D(12, 9),
		"tree":      gen.BinaryTree(7),
		"rand":      gen.RandomConnected(200, 150, 1),
		"rmat":      gen.RMAT(8, 6, gen.DefaultRMAT, 2),
		"ba":        gen.BarabasiAlbert(300, 3, 3),
		"disjoint":  gen.Disjoint(gen.Path(20), gen.Cycle(30)),
		"singleton": graph.NewBuilder(1).Build(),
	}
}

func TestEccentricityMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for _, workers := range []int{1, 2, 4, 8} {
			e := New(g, workers)
			n := g.NumVertices()
			step := n/17 + 1
			for v := 0; v < n; v += step {
				want := refEcc(refDistances(g, graph.Vertex(v)))
				got := e.Eccentricity(graph.Vertex(v))
				if got != want {
					t.Errorf("%s workers=%d ecc(%d) = %d, want %d", name, workers, v, got, want)
				}
			}
		}
	}
}

func TestDistancesMatchReference(t *testing.T) {
	for name, g := range testGraphs() {
		n := g.NumVertices()
		dist := make([]int32, n)
		for _, workers := range []int{1, 4} {
			e := New(g, workers)
			for _, v := range []int{0, n / 2, n - 1} {
				want := refDistances(g, graph.Vertex(v))
				gotEcc := e.Distances(graph.Vertex(v), dist)
				for i := range want {
					if dist[i] != want[i] {
						t.Fatalf("%s workers=%d dist[%d from %d] = %d, want %d",
							name, workers, i, v, dist[i], want[i])
					}
				}
				if gotEcc != refEcc(want) {
					t.Errorf("%s: ecc %d, want %d", name, gotEcc, refEcc(want))
				}
			}
		}
	}
}

func TestLastFrontierIsFarthestSet(t *testing.T) {
	for name, g := range testGraphs() {
		if g.NumVertices() == 0 {
			continue
		}
		e := New(g, 4)
		src := graph.Vertex(0)
		ecc := e.Eccentricity(src)
		want := refDistances(g, src)
		// Every member of the last frontier must be at distance ecc,
		// and all vertices at distance ecc must be in it.
		inFrontier := map[graph.Vertex]bool{}
		for _, v := range e.LastFrontier() {
			inFrontier[v] = true
			if want[v] != ecc {
				t.Errorf("%s: frontier vertex %d at distance %d, ecc %d", name, v, want[v], ecc)
			}
		}
		for v, d := range want {
			if d == ecc && !inFrontier[graph.Vertex(v)] {
				t.Errorf("%s: vertex %d at max distance %d missing from last frontier", name, v, d)
			}
		}
	}
}

func TestReachedCountsComponent(t *testing.T) {
	g := gen.Disjoint(gen.Path(25), gen.Cycle(40))
	e := New(g, 2)
	e.Eccentricity(0)
	if e.Reached() != 25 {
		t.Errorf("reached = %d, want 25", e.Reached())
	}
	e.Eccentricity(30)
	if e.Reached() != 40 {
		t.Errorf("reached = %d, want 40", e.Reached())
	}
}

func TestPartialLevels(t *testing.T) {
	g := gen.Path(30) // vertices 0..29 in a line
	e := New(g, 1)
	var levels []int32
	var sizes []int
	got := e.Partial([]graph.Vertex{0}, 5, func(level int32, frontier []graph.Vertex) {
		levels = append(levels, level)
		sizes = append(sizes, len(frontier))
	})
	if got != 5 {
		t.Fatalf("partial advanced %d levels, want 5", got)
	}
	for i, l := range levels {
		if l != int32(i+1) || sizes[i] != 1 {
			t.Fatalf("level sequence wrong: levels=%v sizes=%v", levels, sizes)
		}
	}
}

func TestPartialMultiSource(t *testing.T) {
	g := gen.Path(21)
	e := New(g, 1)
	// Seeds at both ends: level k visits vertices k and 20−k; the two
	// waves meet in the middle at level 10.
	reached := map[graph.Vertex]int32{}
	levels := e.Partial([]graph.Vertex{0, 20}, -1, func(level int32, frontier []graph.Vertex) {
		for _, v := range frontier {
			reached[v] = level
		}
	})
	if levels != 10 {
		t.Fatalf("levels = %d, want 10", levels)
	}
	for v := 1; v < 20; v++ {
		want := int32(v)
		if 20-v < v {
			want = int32(20 - v)
		}
		if reached[graph.Vertex(v)] != want {
			t.Errorf("vertex %d visited at level %d, want %d", v, reached[graph.Vertex(v)], want)
		}
	}
}

func TestPartialSeedsDeduplicated(t *testing.T) {
	g := gen.Path(10)
	e := New(g, 1)
	count := 0
	e.Partial([]graph.Vertex{3, 3, 3}, 1, func(level int32, frontier []graph.Vertex) {
		count += len(frontier)
	})
	if count != 2 { // neighbors 2 and 4
		t.Fatalf("visited %d vertices, want 2", count)
	}
}

func TestBottomUpTriggersAndAgrees(t *testing.T) {
	// A star's first frontier is n−1 vertices, far beyond the 10 %
	// threshold, so the bottom-up path runs. Verify against small
	// threshold forcing too.
	g := gen.Star(500)
	for _, workers := range []int{1, 4} {
		e := New(g, workers)
		if got := e.Eccentricity(0); got != 1 {
			t.Errorf("star hub ecc = %d, want 1", got)
		}
		if got := e.Eccentricity(1); got != 2 {
			t.Errorf("star leaf ecc = %d, want 2", got)
		}
	}
	// Force bottom-up on every level of a random graph: a huge α makes
	// the switch condition always hold, a huge β prevents switching back.
	g2 := gen.RandomConnected(300, 300, 9)
	e2 := New(g2, 4)
	e2.setAlphaBeta(1<<30, 1<<30)
	e2.setSerialCutoff(0)
	for v := 0; v < 300; v += 37 {
		want := refEcc(refDistances(g2, graph.Vertex(v)))
		if got := e2.Eccentricity(graph.Vertex(v)); got != want {
			t.Errorf("forced bottom-up ecc(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestDirectionOptToggle(t *testing.T) {
	g := gen.RMAT(9, 8, gen.DefaultRMAT, 5)
	a := New(g, 4)
	b := New(g, 4)
	b.SetDirectionOptimized(false)
	for v := 0; v < g.NumVertices(); v += 101 {
		if x, y := a.Eccentricity(graph.Vertex(v)), b.Eccentricity(graph.Vertex(v)); x != y {
			t.Errorf("dir-opt changes ecc(%d): %d vs %d", v, x, y)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g := gen.RandomConnected(400, 400, 11)
	want := New(g, 1).Eccentricity(7)
	for _, w := range []int{2, 8, 16} {
		if got := New(g, w).Eccentricity(7); got != want {
			t.Errorf("workers=%d: ecc %d, want %d", w, got, want)
		}
	}
}

func TestMarksEpochIsolation(t *testing.T) {
	m := &Marks{cnt: make([]uint32, 10)}
	m.Next()
	m.Visit(3)
	if !m.Visited(3) || m.Visited(4) {
		t.Fatal("visit bookkeeping wrong")
	}
	m.Next()
	if m.Visited(3) {
		t.Fatal("mark leaked across epochs")
	}
}

func TestMarksWraparound(t *testing.T) {
	m := &Marks{cnt: make([]uint32, 4)}
	m.epoch = ^uint32(0) // one before wraparound
	m.Visit(1)
	m.Next() // wraps: array must be cleared
	if m.Visited(1) {
		t.Fatal("stale mark visible after wraparound")
	}
	m.Visit(2)
	if !m.Visited(2) {
		t.Fatal("marking after wraparound broken")
	}
}

func TestEccentricityStressRandom(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.RandomConnected(500, int(seed)*200, seed)
		e1 := New(g, 1)
		e4 := New(g, 4)
		for v := 0; v < 500; v += 83 {
			a := e1.Eccentricity(graph.Vertex(v))
			b := e4.Eccentricity(graph.Vertex(v))
			want := refEcc(refDistances(g, graph.Vertex(v)))
			if a != want || b != want {
				t.Errorf("seed %d v %d: serial %d parallel %d want %d", seed, v, a, b, want)
			}
		}
	}
}

func BenchmarkEccentricity(b *testing.B) {
	for _, size := range []int{12, 16} {
		g := gen.RMAT(size, 8, gen.DefaultRMAT, 42)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("rmat%d/workers=%d", size, workers), func(b *testing.B) {
				e := New(g, workers)
				src := g.MaxDegreeVertex()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Eccentricity(src)
				}
			})
		}
	}
}

func TestEngineKnobClamping(t *testing.T) {
	g := gen.Path(20)
	e := New(g, 2)
	e.setAlphaBeta(0, -3) // selects the defaults
	e.setSerialCutoff(-5) // clamps to 0
	if got := e.Eccentricity(0); got != 19 {
		t.Fatalf("ecc with extreme knobs = %d, want 19", got)
	}
	e.setAlphaBeta(1<<30, 1<<30)
	e.setSerialCutoff(1 << 30)
	if got := e.Eccentricity(0); got != 19 {
		t.Fatalf("ecc with huge knobs = %d, want 19", got)
	}
}

func TestEngineReusedAcrossComponents(t *testing.T) {
	// Counter-based marks must isolate consecutive traversals of
	// different components without any reset.
	g := gen.Disjoint(gen.Path(11), gen.Disjoint(gen.Cycle(8), gen.Star(6)))
	e := New(g, 1)
	wants := map[graph.Vertex]int32{0: 10, 5: 5, 11: 4, 19: 1}
	for round := 0; round < 3; round++ { // repeat to stress epoch reuse
		for src, want := range wants {
			if got := e.Eccentricity(src); got != want {
				t.Fatalf("round %d: ecc(%d) = %d, want %d", round, src, got, want)
			}
		}
	}
}

func TestGraphAccessor(t *testing.T) {
	g := gen.Path(3)
	if New(g, 1).Graph() != g {
		t.Fatal("Graph() accessor broken")
	}
}

// TestParallelEngineIsCollected pins that a dropped engine whose levels
// were dispatched in parallel can be garbage collected: no worker
// goroutine or job outlives its call holding the body closure (and
// through it the engine), which would leak every parallel solve's
// buffers.
func TestParallelEngineIsCollected(t *testing.T) {
	dispatches := obs.Default().Counter("fdiam_par_pool_dispatches_total", "")
	before := dispatches.Value()
	wp := func() weak.Pointer[Engine] {
		e := New(gen.Grid2D(40, 40), 2)
		// Every level runs the parallel bottom-up scan: huge α/β force
		// bottom-up, and a zero cutoff dispatches every pass.
		e.setAlphaBeta(1<<30, 1<<30)
		e.setSerialCutoff(0)
		if got := e.Eccentricity(0); got != 78 {
			t.Fatalf("ecc(0) = %d, want 78", got)
		}
		return weak.Make(e)
	}()
	if dispatches.Value() == before {
		t.Fatal("traversal never dispatched in parallel")
	}
	for i := 0; i < 10 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("engine still reachable after GC: a dispatch pins its body")
	}
}
