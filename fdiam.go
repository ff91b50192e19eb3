// Package fdiam computes the exact diameter of large, undirected,
// unweighted, sparse graphs with the F-Diam algorithm (Bradley,
// Mongandampulath Akathoott, Burtscher: "Fast Exact Diameter Computation of
// Sparse Graphs", ICPP 2025).
//
// F-Diam avoids the O(nm) all-pairs approach by removing vertices from
// consideration before their eccentricity is ever computed: a 2-sweep
// initial bound, the novel Winnowing technique (discarding the ball of
// radius bound/2 around a central vertex, justified by the theorems that
// every connected graph has two diameter-attaining vertices and no
// eccentricity below half the diameter), Chain Processing for degree-1
// pendants and degree-2 chains, and partial-BFS Eliminate passes. The few
// remaining eccentricities are computed with a parallel, level-synchronous,
// direction-optimized BFS.
//
// Quick start:
//
//	b := fdiam.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	res := fdiam.Diameter(b.Build())
//	fmt.Println(res.Diameter) // 3
//
// For disconnected inputs Result.Infinite is true and Result.Diameter
// reports the largest eccentricity over all connected components, the same
// convention as the paper's implementation.
package fdiam

import (
	"context"
	"fmt"

	"fdiam/internal/baseline"
	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
// Build one with a Builder, a generator, or a loader.
type Graph = graph.Graph

// Builder accumulates edges and produces a clean Graph (self-loops removed,
// parallel edges deduplicated, adjacency sorted).
type Builder = graph.Builder

// Edge is an undirected edge.
type Edge = graph.Edge

// Vertex is a dense vertex identifier in [0, NumVertices).
type Vertex = graph.Vertex

// Options configures a Diameter computation; the zero value runs the full
// parallel algorithm. See the fields for the paper's ablation toggles.
type Options = core.Options

// CheckpointOptions (the Options.Checkpoint field) makes a long solve
// crash-safe: the solver periodically snapshots its state to Dir and a later
// run resuming via ResumeFrom redoes at most one checkpoint interval of
// work. Snapshots are CRC-guarded, bound to the graph's content hash, and
// any resume failure degrades to a fresh — still exact — solve.
type CheckpointOptions = core.CheckpointOptions

// Result is the outcome of a diameter computation, including the per-stage
// statistics (BFS counts, removal percentages, stage timings) the paper
// reports in its evaluation.
type Result = core.Result

// Stats holds the evaluation metrics of a run.
type Stats = core.Stats

// NewBuilder creates a Builder for a graph with n vertices (the graph grows
// automatically if larger vertex ids are added).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Diameter computes the exact diameter of g with the full parallel F-Diam
// algorithm.
func Diameter(g *Graph) Result { return core.Diameter(g, core.Options{}) }

// DiameterWithOptions computes the exact diameter with explicit options
// (serial mode, ablations, worker count, timeout).
func DiameterWithOptions(g *Graph, opt Options) Result { return core.Diameter(g, opt) }

// DiameterCtx computes the exact diameter under a context: cancelling ctx
// (or exceeding Options.Timeout) aborts the computation at the next BFS
// level boundary and returns the best lower bound established so far with
// Result.Cancelled (and, for deadlines, Result.TimedOut) set. This is the
// entry point for deadline-bound callers — interactive tools and serving
// layers that must not overshoot a request budget.
func DiameterCtx(ctx context.Context, g *Graph, opt Options) Result {
	return core.DiameterCtx(ctx, g, opt)
}

// BaselineResult is the outcome of one of the prior-work algorithms.
type BaselineResult = baseline.Result

// BaselineOptions configures a baseline run.
type BaselineOptions = baseline.Options

// DiameterIFUB computes the exact diameter with the iFUB algorithm
// (Crescenzi et al. 2013), the primary comparison code in the paper.
func DiameterIFUB(g *Graph, opt BaselineOptions) BaselineResult { return baseline.IFUB(g, opt) }

// DiameterBounding computes the exact diameter with the Graph-Diameter /
// BoundingDiameters eccentricity-bounding scheme (Akiba et al. 2015,
// undirected restriction).
func DiameterBounding(g *Graph, opt BaselineOptions) BaselineResult { return baseline.Bounding(g, opt) }

// DiameterNaive computes the exact diameter with one BFS per vertex — the
// O(nm) reference.
func DiameterNaive(g *Graph, opt BaselineOptions) BaselineResult { return baseline.Naive(g, opt) }

// GraphStats summarizes structural properties (Table 1's columns).
type GraphStats = graph.Stats

// ComputeGraphStats gathers GraphStats in O(n+m).
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

//
// Generators — deterministic synthetic graphs for three topology classes of
// the paper's inputs: power-law (RMAT), core–periphery social/web, and road.
//

// NewRMAT returns a recursive-matrix power-law graph with 2^scale vertices
// and about edgeFactor·2^scale edges.
func NewRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, gen.DefaultRMAT, seed)
}

// NewSocialNetwork returns a power-law graph with the core–periphery
// structure of real social/web networks: a preferential-attachment core
// plus sparse tree "whiskers" of the given depth, which set the diameter to
// roughly 2·whiskerDepth + core diameter. whiskerFrac is the fraction of
// vertices in the periphery.
func NewSocialNetwork(n, k int, whiskerFrac float64, whiskerDepth int, seed uint64) *Graph {
	return gen.CoreWhiskers(n, k, whiskerFrac, whiskerDepth, seed)
}

// NewRoadNetwork returns a road-map-like graph: a random spanning tree of
// the w×h grid plus extraFrac of the remaining grid edges.
func NewRoadNetwork(w, h int, extraFrac float64, seed uint64) *Graph {
	return gen.RoadNetwork(w, h, extraFrac, seed)
}

// LoadFile reads a graph file. ".metis"/".graph" files are parsed as METIS
// (their header is ambiguous with edge lists, so the extension decides);
// everything else is sniffed (binary CSR, Matrix Market, DIMACS, or plain
// edge list).
func LoadFile(path string) (*Graph, error) {
	g, err := graphio.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fdiam: %w", err)
	}
	return g, nil
}
