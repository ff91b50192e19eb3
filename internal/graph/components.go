package graph

// Components describes the connected components of a graph.
type Components struct {
	// ID maps each vertex to its component id in [0, Count).
	ID []int32
	// Sizes holds the vertex count of each component.
	Sizes []int64
	// Count is the number of connected components (isolated vertices are
	// their own components).
	Count int
}

// Largest returns the id of the largest component, or -1 for an empty graph.
func (c *Components) Largest() int {
	best := -1
	var bestSize int64 = -1
	for id, s := range c.Sizes {
		if s > bestSize {
			bestSize = s
			best = id
		}
	}
	return best
}

// IsConnected reports whether the whole graph is one component (empty and
// single-vertex graphs count as connected).
func (c *Components) IsConnected() bool { return c.Count <= 1 }

// ConnectedComponents labels all connected components with an iterative BFS
// (no recursion, so deep path graphs are safe). Runs in O(n+m).
func ConnectedComponents(g *Graph) *Components {
	n := g.NumVertices()
	id := make([]int32, n)
	for i := range id {
		id[i] = -1
	}
	var sizes []int64
	queue := make([]Vertex, 0, 1024)
	next := int32(0)
	for s := 0; s < n; s++ {
		if id[s] >= 0 {
			continue
		}
		comp := next
		next++
		var size int64 = 1
		id[s] = comp
		queue = append(queue[:0], Vertex(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if id[w] < 0 {
					id[w] = comp
					size++
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return &Components{ID: id, Sizes: sizes, Count: int(next)}
}
