package bfs

import (
	"sync/atomic"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// msEccs runs sources through MultiSourceRun in batches of 64 and returns
// their eccentricities, parallel to sources.
func msEccs(g *graph.Graph, sources []graph.Vertex, workers int) []int32 {
	e := New(g, workers)
	defer e.Close()
	eccs := make([]int32, 0, len(sources))
	for base := 0; base < len(sources); base += 64 {
		eccs = append(eccs, e.MultiSourceRun(sources[base:min(base+64, len(sources))]).Ecc...)
	}
	return eccs
}

func TestMultiSourceEccentricitiesMatchesSingleSource(t *testing.T) {
	for name, g := range testGraphs() {
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		// All vertices as sources (exercises multiple batches on the
		// larger graphs).
		all := make([]graph.Vertex, n)
		for v := range all {
			all[v] = graph.Vertex(v)
		}
		got := msEccs(g, all, 2)
		e := New(g, 1)
		for v := 0; v < n; v++ {
			want := e.Eccentricity(graph.Vertex(v))
			if got[v] != want {
				t.Errorf("%s: MS ecc(%d) = %d, want %d", name, v, got[v], want)
			}
		}
	}
}

func TestMultiSourceSubset(t *testing.T) {
	g := gen.Grid2D(9, 7)
	sources := []graph.Vertex{0, 5, 31, 62}
	got := msEccs(g, sources, 1)
	e := New(g, 1)
	for i, s := range sources {
		if want := e.Eccentricity(s); got[i] != want {
			t.Errorf("source %d: %d, want %d", s, got[i], want)
		}
	}
}

func TestMultiSourceBatchBoundary(t *testing.T) {
	// Exactly 64, 65, and 128 sources cross the batch boundaries.
	g := gen.RandomConnected(140, 100, 5)
	e := New(g, 1)
	for _, count := range []int{1, 63, 64, 65, 128, 140} {
		sources := make([]graph.Vertex, count)
		for i := range sources {
			sources[i] = graph.Vertex(i)
		}
		got := msEccs(g, sources, 1)
		for i, s := range sources {
			if want := e.Eccentricity(s); got[i] != want {
				t.Fatalf("count=%d: ecc(%d) = %d, want %d", count, s, got[i], want)
			}
		}
	}
}

func TestMultiSourceIsolatedAndEmpty(t *testing.T) {
	if got := msEccs(graph.NewBuilder(0).Build(), nil, 1); len(got) != 0 {
		t.Fatal("empty graph")
	}
	g := graph.NewBuilder(3).Build() // three isolated vertices
	got := msEccs(g, []graph.Vertex{0, 1, 2}, 1)
	for _, e := range got {
		if e != 0 {
			t.Fatalf("isolated vertex ecc = %d", e)
		}
	}
}

func TestMultiSourceParallelAgrees(t *testing.T) {
	g := gen.RMAT(11, 6, gen.DefaultRMAT, 13) // n=2048 < 4096 threshold? use bigger
	g2 := gen.RMAT(13, 6, gen.DefaultRMAT, 13)
	for _, gg := range []*graph.Graph{g, g2} {
		sources := []graph.Vertex{0, 1, 2, 100, 500}
		a := msEccs(gg, sources, 1)
		b := msEccs(gg, sources, 4)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("worker mismatch at %d: %d vs %d", i, a[i], b[i])
			}
		}
	}
}

// collectSources returns up to max distinct source vertices spread over g.
func collectSources(g *graph.Graph, max int) []graph.Vertex {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	stride := n/max + 1
	var out []graph.Vertex
	for v := 0; v < n && len(out) < max; v += stride {
		out = append(out, graph.Vertex(v))
	}
	return out
}

// TestMultiSourceRunWitnessRealizesEcc: each witness lies at distance
// exactly Ecc from its source, and is the lowest id there, so the witness
// does not depend on the order a kernel emitted the last level in.
func TestMultiSourceRunWitnessRealizesEcc(t *testing.T) {
	for name, g := range testGraphs() {
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		e := New(g, 2)
		sources := collectSources(g, 64)
		res := e.MultiSourceRun(sources)
		if res.Aborted {
			t.Fatalf("%s: unexpected abort", name)
		}
		ref := New(g, 1)
		dist := make([]int32, n)
		for i, s := range sources {
			want := ref.Distances(s, dist)
			if res.Ecc[i] != want {
				t.Errorf("%s: ecc(%d) = %d, want %d", name, s, res.Ecc[i], want)
			}
			lowest := graph.NoVertex
			for v, d := range dist {
				if d == want {
					lowest = min(lowest, graph.Vertex(v))
				}
			}
			if w := res.Witness[i]; w != lowest {
				t.Errorf("%s: witness %d of source %d at dist %d, want %d at dist %d",
					name, w, s, dist[w], lowest, res.Ecc[i])
			}
		}
	}
}

func TestMultiSourceRunDuplicateSources(t *testing.T) {
	g := gen.Grid2D(8, 8)
	sources := []graph.Vertex{5, 5, 17, 5}
	e := New(g, 1)
	res := e.MultiSourceRun(sources)
	ref := New(g, 1)
	for i, s := range sources {
		if want := ref.Eccentricity(s); res.Ecc[i] != want {
			t.Errorf("source %d (bit %d): ecc %d, want %d", s, i, res.Ecc[i], want)
		}
	}
}

func TestMultiSourceRunEngineInterleaving(t *testing.T) {
	// MS state and single-source marks must not interfere: alternate the
	// two traversal kinds on one engine.
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 7)
	e := New(g, 2)
	ref := New(g, 1)
	sources := collectSources(g, 64)
	for round := 0; round < 3; round++ {
		res := e.MultiSourceRun(sources)
		for i, s := range sources {
			if want := ref.Eccentricity(s); res.Ecc[i] != want {
				t.Fatalf("round %d: MS ecc(%d) = %d, want %d", round, s, res.Ecc[i], want)
			}
		}
		if got, want := e.Eccentricity(sources[0]), ref.Eccentricity(sources[0]); got != want {
			t.Fatalf("round %d: single ecc = %d, want %d", round, got, want)
		}
	}
}

func TestMultiSourceRunCancelImmediate(t *testing.T) {
	g := gen.Grid2D(30, 30)
	e := New(g, 1)
	var flag atomic.Bool
	flag.Store(true)
	e.SetCancel(&flag)
	res := e.MultiSourceRun([]graph.Vertex{0, 10, 20})
	if !res.Aborted || !e.Aborted() {
		t.Fatal("expected aborted run")
	}
	if res.Levels != 0 {
		t.Fatalf("levels = %d, want 0", res.Levels)
	}
	for i, ecc := range res.Ecc {
		if ecc != 0 {
			t.Fatalf("ecc[%d] = %d, want 0 (no levels completed)", i, ecc)
		}
	}
}

func TestMultiSourceRunCancelMidRun(t *testing.T) {
	g := gen.Grid2D(40, 40) // diameter 78: plenty of levels
	e := New(g, 1)
	var flag atomic.Bool
	e.SetCancel(&flag)
	levels := 0
	e.SetBarrier(func() {
		levels++
		if levels == 5 {
			flag.Store(true)
		}
	})
	res := e.MultiSourceRun([]graph.Vertex{0})
	if !res.Aborted {
		t.Fatal("expected aborted run")
	}
	ref := New(g, 1)
	want := ref.Eccentricity(0)
	if res.Ecc[0] >= want {
		t.Fatalf("aborted ecc %d not a strict lower bound of %d", res.Ecc[0], want)
	}
	if res.Ecc[0] != res.Levels {
		t.Fatalf("single-source lower bound %d != completed levels %d", res.Ecc[0], res.Levels)
	}
}

func TestMultiSourceRunBarrierPerLevel(t *testing.T) {
	g := gen.Grid2D(12, 12)
	e := New(g, 1)
	calls := 0
	e.SetBarrier(func() { calls++ })
	res := e.MultiSourceRun([]graph.Vertex{0, 50})
	// The barrier runs before every expansion round, including the final
	// round that discovers the frontier is exhausted.
	if want := int(res.Levels) + 1; calls != want {
		t.Fatalf("barrier calls = %d, want %d (levels %d)", calls, want, res.Levels)
	}
}

func TestMultiSourceRunPullKernelAgrees(t *testing.T) {
	// A star's center frontier passes the pull gate immediately at
	// workers > 1; the RMAT exercises mixed push/pull level sequences.
	graphs := map[string]*graph.Graph{
		"star": gen.Star(5000),
		"rmat": gen.RMAT(12, 8, gen.DefaultRMAT, 3),
	}
	for name, g := range graphs {
		serial := New(g, 1)
		parallel := New(g, 4)
		parallel.setSerialCutoff(0)
		sources := collectSources(g, 64)
		a := serial.MultiSourceRun(sources)
		b := parallel.MultiSourceRun(sources)
		if a.Levels != b.Levels {
			t.Fatalf("%s: levels %d vs %d", name, a.Levels, b.Levels)
		}
		for i := range sources {
			if a.Ecc[i] != b.Ecc[i] || a.Witness[i] != b.Witness[i] {
				t.Fatalf("%s: source %d: ecc %d vs %d, witness %d vs %d",
					name, i, a.Ecc[i], b.Ecc[i], a.Witness[i], b.Witness[i])
			}
		}
	}
}

func TestMultiSourceRunOversizedBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch > 64 sources")
		}
	}()
	g := gen.Path(100)
	New(g, 1).MultiSourceRun(make([]graph.Vertex, 65))
}

func BenchmarkMultiSource64(b *testing.B) {
	g := gen.RMAT(13, 8, gen.DefaultRMAT, 3)
	sources := make([]graph.Vertex, 64)
	for i := range sources {
		sources[i] = graph.Vertex(i * 17)
	}
	e := New(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MultiSourceRun(sources)
	}
}

func Benchmark64SingleSource(b *testing.B) {
	// The comparison point: 64 separate traversals.
	g := gen.RMAT(13, 8, gen.DefaultRMAT, 3)
	e := New(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 64; s++ {
			e.Eccentricity(graph.Vertex(s * 17))
		}
	}
}
