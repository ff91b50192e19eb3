package graph

import "fmt"

// Stats summarizes structural properties of a graph, mirroring the columns
// of the paper's Table 1 (vertices, edges incl. back edges, avg degree, max
// degree) plus a few extras that explain F-Diam's behaviour (degree-0 and
// degree-1 counts drive the Degree-0 column of Table 4 and Chain
// Processing).
type Stats struct {
	Vertices   int
	Arcs       int64 // directed arcs = 2 × undirected edges (paper's "edges")
	AvgDegree  float64
	MaxDegree  int
	MaxDegreeV Vertex
	Degree0    int // isolated vertices
	Degree1    int // chain anchors
	Degree2    int // chain links
	Components int
	LargestCC  int64
}

// ComputeStats gathers Stats in O(n+m).
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Vertices:   g.NumVertices(),
		Arcs:       g.NumArcs(),
		AvgDegree:  g.AvgDegree(),
		MaxDegree:  g.MaxDegree(),
		MaxDegreeV: g.MaxDegreeVertex(),
	}
	for v := 0; v < g.NumVertices(); v++ {
		switch g.Degree(Vertex(v)) {
		case 0:
			s.Degree0++
		case 1:
			s.Degree1++
		case 2:
			s.Degree2++
		}
	}
	cc := ConnectedComponents(g)
	s.Components = cc.Count
	if l := cc.Largest(); l >= 0 {
		s.LargestCC = cc.Sizes[l]
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d arcs=%d avgDeg=%.1f maxDeg=%d deg0=%d deg1=%d cc=%d largestCC=%d",
		s.Vertices, s.Arcs, s.AvgDegree, s.MaxDegree, s.Degree0, s.Degree1, s.Components, s.LargestCC)
}
