// Package ecc provides the brute-force eccentricity reference: one BFS per
// vertex, the APSP-by-BFS approach the paper's introduction starts from.
// It is the ground truth every optimized algorithm in this repository is
// tested against.
package ecc

import (
	"fdiam/internal/bfs"
	"fdiam/internal/graph"
	"fdiam/internal/par"
)

// All computes the eccentricity of every vertex with one BFS per vertex,
// parallelized over sources. Isolated vertices have eccentricity 0;
// eccentricities are per connected component (BFS semantics). O(nm) — use
// only on small graphs or as ground truth.
func All(g *graph.Graph, workers int) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	if workers < 1 {
		workers = par.DefaultWorkers()
	}
	// One serial engine per worker; sources are distributed dynamically.
	engines := make([]*bfs.Engine, workers)
	for i := range engines {
		engines[i] = bfs.New(g, 1)
	}
	par.ForWorker(n, workers, 16, func(worker, lo, hi int) {
		e := engines[worker]
		for v := lo; v < hi; v++ {
			out[v] = e.Eccentricity(graph.Vertex(v))
		}
	})
	return out
}

// Diameter returns the brute-force diameter (largest eccentricity over all
// components). Ground truth for tests.
func Diameter(g *graph.Graph, workers int) int32 {
	var d int32
	for _, e := range All(g, workers) {
		if e > d {
			d = e
		}
	}
	return d
}
