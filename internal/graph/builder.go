package graph

import (
	"fmt"
	"slices"
)

// Edge is an undirected edge between two vertices.
type Edge struct {
	A, B Vertex
}

// Builder accumulates undirected edges and produces a clean CSR Graph.
//
// The build step symmetrizes (every edge is stored in both directions),
// removes self-loops, and deduplicates parallel edges, so the resulting
// Graph is a simple undirected graph — the input class F-Diam targets.
// Degree-0 vertices are preserved (the paper's Table 4 reports them as a
// separate removal category).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumVertices returns the declared vertex count.
func (b *Builder) NumVertices() int { return b.n }

// Grow raises the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {a, b}. Self-loops and duplicates are
// tolerated here and dropped at Build time. Vertices beyond the declared
// count grow the graph.
func (b *Builder) AddEdge(a, c Vertex) {
	if int(a) >= b.n {
		b.n = int(a) + 1
	}
	if int(c) >= b.n {
		b.n = int(c) + 1
	}
	b.edges = append(b.edges, Edge{a, c})
}

// ReserveEdges makes room for m more edges, so a loader that can estimate
// its edge count up front appends without regrowing.
func (b *Builder) ReserveEdges(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// AddEdges records a batch of undirected edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.A, e.B)
	}
}

// NumPendingEdges returns the number of edges recorded so far (before
// dedup/self-loop removal).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the CSR graph. The builder can be reused afterwards; its
// recorded edges are retained.
func (b *Builder) Build() *Graph {
	n := b.n
	// offsets[v+1] counts v's arcs (both directions, self-loops skipped);
	// the prefix sum then makes offsets[v] the start of v's row.
	offsets := make([]int64, n+1)
	for _, e := range b.edges {
		if e.A != e.B {
			offsets[e.A+1]++
			offsets[e.B+1]++
		}
	}
	for v := range n {
		offsets[v+1] += offsets[v]
	}
	// Fill with offsets[v] as v's write cursor; afterwards offsets[v] is
	// the end of row v.
	targets := make([]Vertex, offsets[n])
	for _, e := range b.edges {
		if e.A != e.B {
			targets[offsets[e.A]] = e.B
			offsets[e.A]++
			targets[offsets[e.B]] = e.A
			offsets[e.B]++
		}
	}
	// Sort and deduplicate each row, compacting the target array and
	// rewriting offsets[v] to the row's final start as we go. Rows filled
	// from an edge list in id order (the serializers' output, most
	// generators) arrive sorted and unique and are left as they are.
	var lo, write int64
	for v := range n {
		hi := offsets[v]
		row := targets[lo:hi]
		if !strictlyIncreasing(row) {
			slices.Sort(row)
			row = slices.Compact(row)
		}
		offsets[v] = write
		if write != lo {
			copy(targets[write:], row)
		}
		write += int64(len(row))
		lo = hi
	}
	offsets[n] = write
	g := &Graph{offsets: offsets, targets: targets[:write:write]}
	g.maxDegV = scanMaxDegree(g)
	return g
}

func strictlyIncreasing(row []Vertex) bool {
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			return false
		}
	}
	return true
}

// FromEdges is a convenience wrapper that builds a graph with n vertices
// from a list of undirected edges.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// FromAdjacency builds a graph from an adjacency-list representation,
// which is convenient in tests. Directed duplicates are fine: the builder
// deduplicates.
func FromAdjacency(adj [][]Vertex) *Graph {
	b := NewBuilder(len(adj))
	for v, nbrs := range adj {
		for _, w := range nbrs {
			b.AddEdge(Vertex(v), w)
		}
	}
	return b.Build()
}

// Edges returns all undirected edges of g with A < B, in sorted order.
// Intended for serialization and tests, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(Vertex(v)) {
			if Vertex(v) < w {
				out = append(out, Edge{Vertex(v), w})
			}
		}
	}
	return out
}

// Validate performs an internal-consistency check: sorted deduplicated
// adjacency lists, symmetry (a∈adj(b) ⇔ b∈adj(a)), no self-loops, and
// offset monotonicity. Intended for tests and loaders.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) != 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets decrease at %d", v)
		}
		adj := g.Neighbors(Vertex(v))
		for i, t := range adj {
			if int(t) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, t)
			}
			if t == Vertex(v) {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && adj[i-1] >= t {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique at pos %d", v, i)
			}
			if !g.HasEdge(t, Vertex(v)) {
				return fmt.Errorf("graph: edge %d→%d has no back edge", v, t)
			}
		}
	}
	if n > 0 {
		if want := scanMaxDegree(g); g.maxDegV != want && g.Degree(g.maxDegV) != g.Degree(want) {
			return fmt.Errorf("graph: cached max-degree vertex %d (deg %d) disagrees with %d (deg %d)",
				g.maxDegV, g.Degree(g.maxDegV), want, g.Degree(want))
		}
	}
	return nil
}
