package bfs

import (
	"slices"
	"sync/atomic"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// msEccs runs sources through MultiSourceRun in batches of 64 and returns
// their eccentricities, parallel to sources.
func msEccs(g *graph.Graph, sources []graph.Vertex, workers int) []int32 {
	e := New(g, workers)
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
	sources := []graph.Vertex{0, 41, 820, 1599}
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
	res := e.MultiSourceRun(sources)
	if !res.Aborted {
		t.Fatal("expected aborted run")
	}
	ref := New(g, 1)
	want := ref.Eccentricity(0)
	if res.Ecc[0] >= want {
		t.Fatalf("aborted ecc %d not a strict lower bound of %d", res.Ecc[0], want)
	}
	if res.Ecc[0] != res.Levels {
		t.Fatalf("source 0 lower bound %d != completed levels %d", res.Ecc[0], res.Levels)
	}
	// Each aborted witness lies at distance Ecc from its source.
	dist := make([]int32, g.NumVertices())
	for i, s := range sources {
		ref.Distances(s, dist)
		if w := res.Witness[i]; dist[w] != res.Ecc[i] {
			t.Errorf("source %d: aborted witness %d at distance %d, want %d", s, w, dist[w], res.Ecc[i])
		}
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

// pullLevels is an obs sink counting the multi-source levels each kernel
// expanded, keyed by step name, with the level's parallel arg.
type pullLevels map[string][]int64

func (p pullLevels) Emit(ev obs.Event) {
	if ev.Cat != "level" {
		return
	}
	for _, a := range ev.Args {
		if a.Key == "parallel" {
			p[ev.Name] = append(p[ev.Name], a.Val)
		}
	}
}

func (p pullLevels) Close() error { return nil }

// tracedRun runs one batch on e under a tracer and returns the levels each
// kernel expanded.
func tracedRun(t *testing.T, e *Engine, sources []graph.Vertex) (MultiSourceResult, pullLevels) {
	t.Helper()
	run := obs.NewRun(obs.Config{})
	levels := pullLevels{}
	run.AddSink(levels)
	e.SetTracer(run)
	res := e.MultiSourceRun(sources)
	e.SetTracer(nil)
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	return res, levels
}

func TestMultiSourceRunPullKernelAgrees(t *testing.T) {
	// A star's center frontier passes the pull gate immediately; the RMAT
	// exercises mixed push/pull level sequences; in the disjoint input no
	// vertex ever holds every source's bit, because each component's
	// lanes never reach the other.
	star := gen.Star(5000)
	rmat := gen.RMAT(12, 8, gen.DefaultRMAT, 3)
	disjoint := gen.Disjoint(gen.Star(3000), gen.Path(400))
	seq := func(lo, count int) []graph.Vertex {
		out := make([]graph.Vertex, count)
		for i := range out {
			out[i] = graph.Vertex(lo + i)
		}
		return out
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		sources []graph.Vertex
	}{
		{"star", star, collectSources(star, 64)},
		{"rmat", rmat, collectSources(rmat, 64)},
		{"rmat-37", rmat, seq(100, 37)}, // live mask below all-ones
		{"rmat-64", rmat, seq(200, 64)},
		{"rmat-dup", rmat, []graph.Vertex{0, 9, 0, 9, 300, 0}},
		{"disjoint", disjoint, append(seq(0, 20), seq(3000, 20)...)},
	}
	for _, c := range cases {
		ref := New(c.g, 1)
		ref.setSerialCutoff(c.g.NumVertices() + 1) // push only
		a := ref.MultiSourceRun(c.sources)
		for _, workers := range []int{1, 4} {
			e := New(c.g, workers)
			e.setSerialCutoff(0)
			b, levels := tracedRun(t, e, c.sources)
			if c.name == "star" && len(levels["ms-pull-serial"])+len(levels["ms-pull-parallel"]) == 0 {
				t.Fatalf("%s workers=%d: no pull level (%v)", c.name, workers, levels)
			}
			if a.Levels != b.Levels {
				t.Fatalf("%s workers=%d: levels %d vs %d", c.name, workers, a.Levels, b.Levels)
			}
			for i := range c.sources {
				if a.Ecc[i] != b.Ecc[i] || a.Witness[i] != b.Witness[i] {
					t.Fatalf("%s workers=%d: source %d: ecc %d vs %d, witness %d vs %d",
						c.name, workers, i, a.Ecc[i], b.Ecc[i], a.Witness[i], b.Witness[i])
				}
			}
		}
	}
}

// TestMultiSourceRunSerialPullTrace: a Workers=1 pull level runs inline,
// and the trace must say so.
func TestMultiSourceRunSerialPullTrace(t *testing.T) {
	g := gen.Star(5000)
	e := New(g, 1)
	_, levels := tracedRun(t, e, collectSources(g, 64))
	if len(levels["ms-pull-serial"]) == 0 || len(levels["ms-pull-parallel"]) != 0 {
		t.Fatalf("Workers=1 levels %v: want ms-pull-serial and no ms-pull-parallel", levels)
	}
	for _, par := range levels["ms-pull-serial"] {
		if par != 0 {
			t.Fatalf("Workers=1 pull level reports parallel=%d", par)
		}
	}
}

// TestMultiSourceRunPullsAtOneWorker: on the soc-LiveJournal1 stand-in the
// level where the whisker tips reach the core is far cheaper as a pull, so
// a Workers=1 batch must run at least one.
func TestMultiSourceRunPullsAtOneWorker(t *testing.T) {
	g := gen.CoreWhiskers(187500, 10, 0.10, 7, 1)
	e := New(g, 1)
	_, levels := tracedRun(t, e, collectSources(g, 64))
	if len(levels["ms-pull-serial"]) == 0 {
		t.Fatalf("Workers=1 batch ran no pull level: %v", levels)
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

// FuzzMultiSourceMatchesSingleSource cross-checks MS-BFS against one
// Distances BFS per source on fuzzer-made graphs (pairs of bytes become
// edges over 48 vertices) and source sets (one byte per source, at most
// 64): every Ecc and lowest-id Witness, push-only and with the pull kernel
// at Workers = 1 and 2, plus a run cancelled at a fuzzer-chosen level,
// whose values must be the lower bounds the contract promises.
func FuzzMultiSourceMatchesSingleSource(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3}, []byte{0, 3}, uint8(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5}, []byte{1, 1, 5, 0}, uint8(1))          // star + tail, duplicates
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{0, 2, 4, 47}, uint8(0))                     // matching + isolated source
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0}, []byte{0, 3, 6}, uint8(3)) // 7-cycle
	f.Fuzz(func(t *testing.T, edges, srcs []byte, cancelAt uint8) {
		const n = 48
		if len(edges) > 512 || len(srcs) == 0 {
			return
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(graph.Vertex(edges[i]%n), graph.Vertex(edges[i+1]%n))
		}
		g := b.Build()
		sources := make([]graph.Vertex, 0, 64)
		for _, s := range srcs[:min(len(srcs), 64)] {
			sources = append(sources, graph.Vertex(s%n))
		}
		dists := make([][]int32, len(sources))
		eccs := make([]int32, len(sources))
		ref := New(g, 1)
		for i, s := range sources {
			dists[i] = make([]int32, n)
			eccs[i] = ref.Distances(s, dists[i])
		}
		// check compares one run against the reference: each Ecc is the
		// true eccentricity capped at the completed levels (uncapped
		// unless aborted), each Witness the lowest id at distance Ecc.
		check := func(what string, res MultiSourceResult) {
			for i, s := range sources {
				want := eccs[i]
				if res.Aborted {
					want = min(want, res.Levels)
				}
				if res.Ecc[i] != want {
					t.Fatalf("%s: source %d: ecc %d, want %d (edges %v)", what, s, res.Ecc[i], want, g.Edges())
				}
				lowest := graph.Vertex(slices.Index(dists[i], want))
				if res.Witness[i] != lowest {
					t.Fatalf("%s: source %d: witness %d, want %d (edges %v)", what, s, res.Witness[i], lowest, g.Edges())
				}
			}
		}
		for _, c := range []struct {
			name            string
			workers, cutoff int
		}{
			{"push-only", 1, n + 1},
			{"workers=1", 1, 0},
			{"workers=2", 2, 0},
		} {
			e := New(g, c.workers)
			e.setSerialCutoff(c.cutoff)
			res := e.MultiSourceRun(sources)
			if res.Aborted {
				t.Fatalf("%s: aborted without a cancel flag", c.name)
			}
			check(c.name, res)
			var flag atomic.Bool
			levels := 0
			e.SetCancel(&flag)
			e.SetBarrier(func() {
				levels++
				if levels > int(cancelAt%16) {
					flag.Store(true)
				}
			})
			check(c.name+" cancelled", e.MultiSourceRun(sources))
		}
	})
}
