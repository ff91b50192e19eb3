// Package ecc provides eccentricity utilities: the brute-force reference
// (one BFS per vertex, the APSP-by-BFS approach the paper's introduction
// starts from), all-vertex eccentricities, and derived quantities — radius,
// center, and periphery. The brute-force path is the ground truth every
// optimized algorithm in this repository is tested against.
package ecc

import (
	"math"

	"fdiam/internal/bfs"
	"fdiam/internal/graph"
	"fdiam/internal/par"
)

// All computes the eccentricity of every vertex with one BFS per vertex,
// parallelized over sources. Isolated vertices have eccentricity 0;
// eccentricities are per connected component (BFS semantics). O(nm) — use
// only on small graphs or as ground truth.
//
//fdiamlint:ignore ctxflow brute-force ground truth; kept ctx-less so oracle call sites stay uncluttered
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

// Info summarizes the eccentricity distribution of a graph.
type Info struct {
	// Diameter is the largest eccentricity over all components (the
	// paper's "CC diameter").
	Diameter int32
	// Radius is the smallest eccentricity within the largest connected
	// component — the graph radius for connected inputs. Secondary
	// components (isolated vertices included) report their eccentricities
	// in Eccs but are excluded from the radius/center/periphery
	// aggregates: mixing per-component minima produced a bogus Radius=0
	// with an isolated-vertex "center" on any graph with a stray vertex.
	Radius int32
	// Center lists the largest component's vertices attaining Radius.
	Center []graph.Vertex
	// Periphery lists the largest component's vertices attaining its
	// internal diameter (which equals Diameter whenever the largest
	// component is also the widest one — always, for connected graphs).
	Periphery []graph.Vertex
	// Eccs holds the per-vertex eccentricities, every component included.
	Eccs []int32
	// BFSTraversals counts the full BFS calls FastInfo spent (BoundedAll's
	// count); Compute leaves it 0.
	BFSTraversals int64
	// Truncated reports that FastInfo's context was cancelled before every
	// vertex resolved: the unresolved Eccs then hold lower bounds, and the
	// aggregates derived from them are not exact.
	Truncated bool
}

// Compute derives Info from a graph using the brute-force method.
// Cancellable callers use FastInfo, which threads a context.
//
//fdiamlint:ignore ctxflow brute-force ground truth; cancellable path is FastInfo
func Compute(g *graph.Graph, workers int) Info {
	return infoFromEccs(g, All(g, workers))
}

// infoFromEccs assembles the Info aggregates from per-vertex
// eccentricities: the diameter stays the global maximum (the CC-diameter
// convention shared with core), while radius, center and periphery are
// restricted to the largest connected component (ties broken toward the
// lowest component id, which is deterministic because components are
// discovered in vertex order).
func infoFromEccs(g *graph.Graph, eccs []int32) Info {
	info := Info{Eccs: eccs}
	if len(eccs) == 0 {
		return info
	}
	for _, e := range eccs {
		if e > info.Diameter {
			info.Diameter = e
		}
	}
	cc := graph.ConnectedComponents(g)
	largest := int32(0)
	for id, sz := range cc.Sizes {
		if sz > cc.Sizes[largest] {
			largest = int32(id)
		}
	}
	info.Radius = math.MaxInt32
	var lcDiam int32
	for v, e := range eccs {
		if cc.ID[v] != largest {
			continue
		}
		if e < info.Radius {
			info.Radius = e
		}
		if e > lcDiam {
			lcDiam = e
		}
	}
	for v, e := range eccs {
		if cc.ID[v] != largest {
			continue
		}
		if e == info.Radius {
			info.Center = append(info.Center, graph.Vertex(v))
		}
		if e == lcDiam {
			info.Periphery = append(info.Periphery, graph.Vertex(v))
		}
	}
	return info
}

// Diameter returns the brute-force diameter (largest eccentricity over all
// components). Ground truth for tests.
//
//fdiamlint:ignore ctxflow brute-force ground truth; kept ctx-less so oracle call sites stay uncluttered
func Diameter(g *graph.Graph, workers int) int32 {
	var d int32
	for _, e := range All(g, workers) {
		if e > d {
			d = e
		}
	}
	return d
}
