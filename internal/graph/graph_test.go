package graph

import (
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumArcs() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d arcs=%d", g.NumVertices(), g.NumArcs())
	}
	if g.MaxDegreeVertex() != NoVertex {
		t.Fatalf("empty graph max-degree vertex = %d", g.MaxDegreeVertex())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Fatalf("got n=%d m=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(Vertex(v)) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(Vertex(v)))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse direction
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self-loop
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop survived")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge 0-2")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderGrowsOnOutOfRangeVertex(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
	if !g.HasEdge(0, 9) {
		t.Error("edge 0-9 missing")
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	// Star: hub 3 has degree 5.
	b := NewBuilder(9)
	for _, leaf := range []Vertex{0, 1, 2, 4, 5} {
		b.AddEdge(3, leaf)
	}
	b.AddEdge(6, 7)
	g := b.Build()
	if g.MaxDegreeVertex() != 3 {
		t.Fatalf("max-degree vertex = %d, want 3", g.MaxDegreeVertex())
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("max degree = %d, want 5", g.MaxDegree())
	}
}

func TestHasEdgeLongAdjacency(t *testing.T) {
	// Degree > 16 exercises the binary-search path.
	b := NewBuilder(64)
	for v := 1; v < 64; v += 2 {
		b.AddEdge(0, Vertex(v))
	}
	g := b.Build()
	for v := 1; v < 64; v++ {
		want := v%2 == 1
		if g.HasEdge(0, Vertex(v)) != want {
			t.Errorf("HasEdge(0,%d) = %v, want %v", v, !want, want)
		}
		if g.HasEdge(Vertex(v), 0) != want {
			t.Errorf("HasEdge(%d,0) = %v, want %v", v, !want, want)
		}
	}
	if g.HasEdge(0, 200) {
		t.Error("out-of-range target reported as edge")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {0, 3}, {2, 3}, {1, 4}}
	g := FromEdges(5, edges)
	got := g.Edges()
	if len(got) != len(edges) {
		t.Fatalf("round trip lost edges: %d vs %d", len(got), len(edges))
	}
	g2 := FromEdges(5, got)
	if g2.NumEdges() != g.NumEdges() || g2.NumArcs() != g.NumArcs() {
		t.Fatal("rebuilt graph differs")
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]Vertex{{1, 2}, {0}, {0}, {}})
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(3) != 0 {
		t.Error("vertex 3 should be isolated")
	}
}

func TestFromCSRValidation(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		targets []Vertex
		ok      bool
	}{
		{"valid", []int64{0, 1, 2}, []Vertex{1, 0}, true},
		{"empty", []int64{}, []Vertex{}, true},
		{"bad-first", []int64{1, 2}, []Vertex{0}, false},
		{"bad-last", []int64{0, 1}, []Vertex{0, 0}, false},
		{"decreasing", []int64{0, 2, 1, 2}, []Vertex{1, 2}, false},
		{"target-oob", []int64{0, 1, 2}, []Vertex{1, 5}, false},
		{"empty-offsets-with-targets", []int64{}, []Vertex{0}, false},
		{"directed-path", []int64{0, 1, 2, 2}, []Vertex{1, 2}, false},
		{"missing-one-back-arc", []int64{0, 2, 3, 4}, []Vertex{1, 2, 0, 1}, false},
		{"self-loop", []int64{0, 2, 3}, []Vertex{0, 1, 0}, false},
		{"unsorted-row", []int64{0, 2, 3, 4}, []Vertex{2, 1, 0, 0}, false},
		{"duplicate-arc", []int64{0, 2, 4}, []Vertex{1, 1, 0, 0}, false},
		{"triangle", []int64{0, 2, 4, 6}, []Vertex{1, 2, 0, 2, 0, 1}, true},
	}
	for _, c := range cases {
		_, err := FromCSR(c.offsets, c.targets)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, ok = %v", c.name, err, c.ok)
		}
	}
}

// TestBuilderPropertyValid checks with testing/quick that arbitrary edge
// soups always build into structurally valid graphs whose edge set matches
// the deduplicated input.
func TestBuilderPropertyValid(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		b := NewBuilder(0)
		want := map[[2]Vertex]bool{}
		for _, p := range pairs {
			a, c := Vertex(p[0]%40), Vertex(p[1]%40)
			b.AddEdge(a, c)
			if a != c {
				lo, hi := a, c
				if lo > hi {
					lo, hi = hi, lo
				}
				want[[2]Vertex{lo, hi}] = true
			}
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if int(g.NumEdges()) != len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	// Two components + one isolated vertex.
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	g := b.Build()
	cc := ConnectedComponents(g)
	if cc.Count != 3 {
		t.Fatalf("components = %d, want 3", cc.Count)
	}
	if cc.IsConnected() {
		t.Error("reported connected")
	}
	var total int64
	for _, s := range cc.Sizes {
		total += s
	}
	if total != 7 {
		t.Errorf("component sizes sum to %d, want 7", total)
	}
	if cc.ID[0] != cc.ID[2] || cc.ID[3] != cc.ID[5] || cc.ID[0] == cc.ID[3] {
		t.Errorf("bad labeling %v", cc.ID)
	}
}

func TestComponentsConnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	cc := ConnectedComponents(b.Build())
	if !cc.IsConnected() || cc.Count != 1 {
		t.Fatalf("path should be connected: %+v", cc)
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder(8)
	b.AddEdge(0, 1) // 0 and 1: degree 1 after this... 1 gets more below
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(1, 3)
	// 4, 5: an isolated edge; 6, 7: isolated vertices.
	b.AddEdge(4, 5)
	g := b.Build()
	s := ComputeStats(g)
	if s.Vertices != 8 || s.Arcs != 10 {
		t.Fatalf("n=%d arcs=%d", s.Vertices, s.Arcs)
	}
	if s.Degree0 != 2 {
		t.Errorf("deg0 = %d, want 2", s.Degree0)
	}
	if s.Degree1 != 3 { // vertices 0, 4, 5
		t.Errorf("deg1 = %d, want 3", s.Degree1)
	}
	if s.Components != 4 {
		t.Errorf("components = %d, want 4", s.Components)
	}
	if s.LargestCC != 4 {
		t.Errorf("largest cc = %d, want 4", s.LargestCC)
	}
	if s.MaxDegree != 3 || s.MaxDegreeV != 1 {
		t.Errorf("max degree %d at %d", s.MaxDegree, s.MaxDegreeV)
	}
}
