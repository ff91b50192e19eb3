package ecc

import (
	"fdiam/internal/bfs"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// DistanceStats summarizes the shortest-path-length distribution of a
// graph — the "how closely connected" view of the paper's social-network
// motivation, complementary to the diameter's worst case.
type DistanceStats struct {
	// Mean is the (estimated) average shortest-path length over
	// connected ordered pairs.
	Mean float64
	// Histogram[d] counts the sampled ordered pairs at distance d
	// (index 0 is unused — pairs are distinct).
	Histogram []int64
	// Pairs is the number of ordered pairs aggregated.
	Pairs int64
	// Sources is the number of BFS traversals performed.
	Sources int64
	// Exact reports whether every vertex served as a source (sampled
	// otherwise).
	Exact bool
}

// AverageDistance computes the mean shortest-path length and the distance
// histogram. If sources <= 0 or sources >= n, every vertex is used (exact,
// O(nm)); otherwise `sources` BFS sources are sampled uniformly, giving an
// unbiased estimate of the mean over ordered reachable pairs.
//
//fdiamlint:ignore ctxflow brute-force ground truth; kept ctx-less so oracle call sites stay uncluttered
func AverageDistance(g *graph.Graph, sources int, seed uint64, workers int) DistanceStats {
	n := g.NumVertices()
	var out DistanceStats
	if n == 0 {
		return out
	}
	exact := sources <= 0 || sources >= n
	var srcList []graph.Vertex
	if exact {
		srcList = make([]graph.Vertex, n)
		for i := range srcList {
			srcList[i] = graph.Vertex(i)
		}
	} else {
		r := gen.NewRNG(seed)
		srcList = make([]graph.Vertex, sources)
		for i := range srcList {
			srcList[i] = graph.Vertex(r.Intn(n))
		}
	}
	out.Exact = exact

	e := bfs.New(g, workers)
	var sum int64
	for _, src := range srcList {
		if g.Degree(src) == 0 {
			out.Sources++
			continue
		}
		out.Sources++
		// One partial (here: unbounded) BFS per source; the per-level
		// callback aggregates the distance histogram directly.
		e.Partial([]graph.Vertex{src}, -1, workers > 1, func(level int32, frontier []graph.Vertex) {
			for int(level) >= len(out.Histogram) {
				out.Histogram = append(out.Histogram, 0)
			}
			out.Histogram[level] += int64(len(frontier))
			sum += int64(level) * int64(len(frontier))
			out.Pairs += int64(len(frontier))
		})
	}
	if out.Pairs > 0 {
		out.Mean = float64(sum) / float64(out.Pairs)
	}
	return out
}
