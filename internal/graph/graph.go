// Package graph provides the compressed-sparse-row (CSR) graph substrate
// used by every algorithm in this repository.
//
// Graphs are undirected and unweighted, matching the scope of the F-Diam
// paper. Each undirected edge {a, b} is stored as the two directed arcs
// a→b and b→a, so NumArcs is always twice the number of undirected edges
// (the paper's Table 1 reports edge counts "including back edges" in the
// same way).
//
// Vertex identifiers are dense uint32 values in [0, NumVertices). The CSR
// arrays are immutable after construction, which makes a Graph safe for
// concurrent readers without locking.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Vertex is a dense vertex identifier in [0, NumVertices).
type Vertex = uint32

// NoVertex is a sentinel meaning "no such vertex".
const NoVertex Vertex = math.MaxUint32

// Graph is an immutable undirected graph in CSR form.
//
// The zero value is an empty graph with no vertices. Use a Builder or one of
// the constructors in this package (or internal/gen, internal/graphio) to
// create non-trivial graphs.
type Graph struct {
	// offsets has length n+1; the neighbors of vertex v are
	// targets[offsets[v]:offsets[v+1]].
	offsets []int64
	// targets holds the concatenated adjacency lists. Each undirected
	// edge appears twice.
	targets []Vertex
	// maxDeg caches the maximum-degree vertex (computed at build time).
	maxDegV Vertex
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumArcs returns the number of directed arcs stored, i.e. twice the number
// of undirected edges.
func (g *Graph) NumArcs() int64 { return int64(len(g.targets)) }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int64 { return int64(len(g.targets)) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v Vertex) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v as a shared, read-only slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v Vertex) []Vertex {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// MaxDegreeVertex returns the vertex with the highest degree. F-Diam uses
// it as the winnow center because high-degree vertices tend to be centrally
// located (paper §3). Ties are broken toward the vertex id closest to n/2:
// on graphs where the maximum degree is massively tied (grids, road maps),
// a lowest-id tie-break would systematically anchor Winnow at a boundary
// vertex and halve its coverage, whereas typical generator and loader
// orders place middle ids away from the boundary. Returns NoVertex for an
// empty graph.
func (g *Graph) MaxDegreeVertex() Vertex {
	if g.NumVertices() == 0 {
		return NoVertex
	}
	return g.maxDegV
}

// AvgDegree returns the average degree (arcs per vertex).
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(n)
}

// MaxDegree returns the maximum degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	if g.NumVertices() == 0 {
		return 0
	}
	return g.Degree(g.maxDegV)
}

// HasEdge reports whether the undirected edge {a, b} exists. It scans the
// shorter of the two adjacency lists; adjacency lists are sorted at build
// time, so a binary search is used for long lists.
func (g *Graph) HasEdge(a, b Vertex) bool {
	if int(a) >= g.NumVertices() || int(b) >= g.NumVertices() {
		return false
	}
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	adj := g.Neighbors(a)
	if len(adj) <= 16 {
		for _, t := range adj {
			if t == b {
				return true
			}
		}
		return false
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == b
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d, m=%d, avgDeg=%.1f, maxDeg=%d}",
		g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())
}

// Offsets exposes the raw CSR offset array (length n+1) for high-performance
// kernels such as the bottom-up BFS. The returned slice must not be modified.
func (g *Graph) Offsets() []int64 { return g.offsets }

// Targets exposes the raw CSR target array for high-performance kernels.
// The returned slice must not be modified.
func (g *Graph) Targets() []Vertex { return g.targets }

// FromCSR builds a Graph directly from CSR arrays, as the binary graph
// loader reads them. The arrays are adopted, not copied; the caller must
// not modify them afterwards. It returns an error unless the arrays
// describe a simple undirected graph: monotone offsets, in-range targets,
// strictly increasing rows without self-loops, and a back arc t→v for
// every arc v→t. Every check runs in O(n + m).
func FromCSR(offsets []int64, targets []Vertex) (*Graph, error) {
	if len(offsets) == 0 {
		if len(targets) != 0 {
			return nil, fmt.Errorf("graph: CSR with empty offsets but %d targets", len(targets))
		}
		return &Graph{}, nil
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(targets)) {
		return nil, fmt.Errorf("graph: CSR offsets[n] = %d, want %d", offsets[n], len(targets))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at vertex %d", v)
		}
	}
	for v := 0; v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		for i, t := range row {
			switch {
			case int(t) >= n:
				return nil, fmt.Errorf("graph: CSR target %d at position %d out of range [0,%d)", t, offsets[v]+int64(i), n)
			case t == Vertex(v):
				return nil, fmt.Errorf("graph: CSR self-loop at vertex %d", v)
			case i > 0 && row[i-1] >= t:
				return nil, fmt.Errorf("graph: CSR row %d not strictly increasing at position %d", v, i)
			}
		}
	}
	// cursor[t] is the next unmatched slot of row t. Scanning v in
	// ascending order, t's in-neighbours arrive in ascending order too, so
	// in a symmetric graph each arc v→t finds v at row t's cursor. Every
	// arc then matches one slot, which accounts for every slot.
	cursor := slices.Clone(offsets[:n])
	for v := 0; v < n; v++ {
		for _, t := range targets[offsets[v]:offsets[v+1]] {
			if cursor[t] == offsets[t+1] || targets[cursor[t]] != Vertex(v) {
				return nil, fmt.Errorf("graph: CSR arc %d→%d has no back arc", v, t)
			}
			cursor[t]++
		}
	}
	g := &Graph{offsets: offsets, targets: targets}
	g.maxDegV = scanMaxDegree(g)
	return g, nil
}

func scanMaxDegree(g *Graph) Vertex {
	n := g.NumVertices()
	if n == 0 {
		return NoVertex
	}
	mid := n / 2
	dist := func(v int) int {
		if v < mid {
			return mid - v
		}
		return v - mid
	}
	best := Vertex(0)
	bestDeg := g.Degree(0)
	for v := 1; v < n; v++ {
		d := g.Degree(Vertex(v))
		if d > bestDeg || (d == bestDeg && dist(v) < dist(int(best))) {
			bestDeg = d
			best = Vertex(v)
		}
	}
	return best
}
