package ecc

import (
	"context"

	"fdiam/internal/bfs"
	"fdiam/internal/bitset"
	"fdiam/internal/graph"
)

// AllResult is the outcome of the bounded all-eccentricities computation.
type AllResult struct {
	// Eccs holds the exact eccentricity of every vertex (per connected
	// component).
	Eccs []int32
	// BFSTraversals counts the full BFS calls performed; the point of
	// the bounding algorithm is that this stays far below n.
	BFSTraversals int64
	// Truncated reports that the context was cancelled before every
	// vertex resolved. The Eccs of unresolved vertices then hold their
	// best-known lower bounds (sound: the triangle-inequality bounds only
	// ever tighten), not exact eccentricities.
	Truncated bool
}

// BoundedAll computes the exact eccentricity of every vertex with the
// Takes–Kosters eccentricity-bounding algorithm: per-vertex lower and upper
// bounds are tightened from every BFS via the triangle inequality
// (max(d, ecc−d) ≤ ecc(w) ≤ ecc+d), and a vertex is resolved the moment its
// bounds meet. Sources alternate between the largest upper bound and the
// smallest lower bound among unresolved vertices. On core–periphery graphs
// this resolves all n eccentricities in a handful of traversals — the
// natural companion to F-Diam when the full eccentricity distribution
// (center, periphery, per-vertex closeness) is wanted rather than just the
// diameter.
//
// Cancelling ctx stops the computation at the next traversal boundary; the
// result then carries Truncated=true with lower bounds in place of the
// unresolved eccentricities.
func BoundedAll(ctx context.Context, g *graph.Graph, workers int) AllResult {
	n := g.NumVertices()
	res := AllResult{Eccs: make([]int32, n)}
	if n == 0 {
		return res
	}
	e := bfs.New(g, workers)
	dist := make([]int32, n)
	lo := make([]int32, n)
	hi := make([]int32, n)
	unresolved := bitset.New(n)
	remaining := 0
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) == 0 {
			continue // isolated: eccentricity 0, already resolved
		}
		hi[v] = int32(n)
		unresolved.Set(v)
		remaining++
	}

	pickHigh := true
	for remaining > 0 {
		if ctx.Err() != nil {
			// Cancelled: report the surviving lower bounds — valid
			// (if loose) eccentricity statements — instead of hanging on
			// for up to n more traversals.
			unresolved.ForEach(func(v int) { res.Eccs[v] = lo[v] })
			res.Truncated = true
			return res
		}
		// Select the next source among unresolved vertices.
		sel := -1
		unresolved.ForEach(func(v int) {
			if sel < 0 {
				sel = v
				return
			}
			better := false
			if pickHigh {
				if hi[v] > hi[sel] || (hi[v] == hi[sel] && g.Degree(graph.Vertex(v)) > g.Degree(graph.Vertex(sel))) {
					better = true
				}
			} else {
				if lo[v] < lo[sel] || (lo[v] == lo[sel] && g.Degree(graph.Vertex(v)) > g.Degree(graph.Vertex(sel))) {
					better = true
				}
			}
			if better {
				sel = v
			}
		})
		pickHigh = !pickHigh

		ecc := e.Distances(graph.Vertex(sel), dist)
		res.BFSTraversals++
		res.Eccs[sel] = ecc
		unresolved.Clear(sel)
		remaining--

		for v := 0; v < n; v++ {
			if !unresolved.Test(v) {
				continue
			}
			d := dist[v]
			if d < 0 {
				continue // other component
			}
			if l := max32(d, ecc-d); l > lo[v] {
				lo[v] = l
			}
			if u := ecc + d; u < hi[v] {
				hi[v] = u
			}
			if lo[v] == hi[v] {
				res.Eccs[v] = lo[v]
				unresolved.Clear(v)
				remaining--
			}
		}
	}
	return res
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// FastInfo computes Info (diameter, radius, center, periphery, all
// eccentricities) using BoundedAll instead of brute force — typically a few
// dozen BFS traversals instead of n — and reports BoundedAll's traversal
// count. The radius/center/periphery aggregates are restricted to the
// largest connected component (see Info); a cancelled ctx sets Truncated,
// and the aggregates then reflect whatever bounds were established.
func FastInfo(ctx context.Context, g *graph.Graph, workers int) Info {
	res := BoundedAll(ctx, g, workers)
	info := infoFromEccs(g, res.Eccs)
	info.BFSTraversals = res.BFSTraversals
	info.Truncated = res.Truncated
	return info
}
