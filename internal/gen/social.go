package gen

import "fdiam/internal/graph"

// CoreWhiskers generates a power-law graph with the core–periphery
// structure of real social/web/citation networks: a dense small-world core
// (preferential attachment, diameter ~log n) plus sparse tree "whiskers"
// hanging off random core vertices. The diameter is realized between the
// tips of the two deepest whiskers and is therefore ≈ 2·whiskerDepth plus
// the small core distance — tunable independently of size, exactly the
// regime of the paper's inputs (amazon0601: avg degree 12 yet diameter 25).
//
// This shape is also what makes Winnowing so effective in the paper
// (Table 4: >99% on such graphs): the ball of radius diameter/2 around the
// max-degree core hub covers the whole core and all but the deepest whisker
// tails, while the eccentricity distribution stays far from uniform.
//
// whiskerFrac is the fraction of vertices placed in whiskers; k is the
// core's attachment degree. Two whiskers are forced to full depth so the
// target is actually realized; the rest get random depths. Whisker trees
// are bushy (random attachment along a guaranteed-depth spine), so Chain
// Processing sees only short pendant chains, matching the paper's small
// Chain percentages.
func CoreWhiskers(n, k int, whiskerFrac float64, whiskerDepth int, seed uint64) *graph.Graph {
	if n < 2 {
		return graph.NewBuilder(n).Build()
	}
	r := NewRNG(seed)
	nw := int(float64(n) * whiskerFrac)
	nc := n - nw
	if nc < 2 {
		nc = 2
		nw = n - 2
	}
	b := graph.NewBuilder(n)

	// Core: preferential attachment over vertices [0, nc).
	endpoints := make([]graph.Vertex, 0, 2*nc*k)
	b.AddEdge(0, 1)
	endpoints = append(endpoints, 0, 1)
	for v := 2; v < nc; v++ {
		deg := k
		if deg > v {
			deg = v
		}
		for e := 0; e < deg; e++ {
			t := endpoints[r.Intn(len(endpoints))]
			b.AddEdge(graph.Vertex(v), t)
			endpoints = append(endpoints, graph.Vertex(v), t)
		}
	}

	// Whiskers: each is a tree with a spine of the chosen depth grown
	// from a random core vertex; remaining budget attaches bushy twigs
	// to random spine/twig vertices. The first two whiskers take the
	// full depth so the diameter target is realized.
	next := graph.Vertex(nc)
	remaining := nw
	whisker := 0
	for remaining > 0 {
		depth := whiskerDepth
		if whisker >= 2 && whiskerDepth > 1 {
			depth = 1 + r.Intn(whiskerDepth)
		}
		if depth > remaining {
			depth = remaining
		}
		size := depth
		if remaining > depth && whisker >= 2 {
			size += r.Intn(remaining - depth + 1)
			if extra := size - depth; extra > depth*2 {
				size = depth * 3 // keep whiskers modest and numerous
			}
		}
		members := make([]graph.Vertex, 0, size)
		prev := graph.Vertex(r.Intn(nc)) // root inside the core
		for i := 0; i < depth; i++ {
			b.AddEdge(prev, next)
			members = append(members, next)
			prev = next
			next++
		}
		// Twigs attach to the spine only, so the whisker's depth stays
		// exactly `depth`+1 and the diameter target is controllable.
		for i := depth; i < size; i++ {
			at := members[r.Intn(depth)]
			b.AddEdge(at, next)
			members = append(members, next)
			next++
		}
		remaining -= size
		whisker++
	}
	return b.Build()
}
