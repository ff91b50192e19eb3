// Quickstart: build a small graph, compute its exact diameter, and inspect
// what the F-Diam stages did.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"fdiam"
)

func main() {
	// A small graph modeled on the paper's Figure 2: 13 vertices a..m
	// with hub i, diameter 6 realized between vertices d and m.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m"}
	idx := func(s string) fdiam.Vertex {
		for i, n := range names {
			if n == s {
				return fdiam.Vertex(i)
			}
		}
		panic("unknown vertex " + s)
	}
	edges := [][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "e"}, {"e", "f"},
		{"f", "i"}, {"i", "g"}, {"g", "h"}, {"i", "j"}, {"i", "k"},
		{"k", "l"}, {"l", "m"}, {"b", "i"},
	}
	b := fdiam.NewBuilder(len(names))
	for _, e := range edges {
		b.AddEdge(idx(e[0]), idx(e[1]))
	}
	g := b.Build()

	res := fdiam.Diameter(g)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("exact diameter: %d (connected: %v)\n", res.Diameter, !res.Infinite)

	// The stage statistics the paper reports in its evaluation:
	s := res.Stats
	fmt.Printf("BFS traversals: %d (eccentricity BFS %d + winnow %d)\n",
		s.BFSTraversals(), s.EccBFS, s.WinnowCalls)
	fmt.Printf("removed without a BFS: winnow %.0f%%, eliminate %.0f%%, chain %.0f%%\n",
		s.PctWinnow(), s.PctEliminate(), s.PctChain())

	// The two vertices that realize the diameter, and a cross-check
	// against the brute-force O(nm) reference.
	fmt.Printf("diameter realized between %s and %s\n", names[res.WitnessA], names[res.WitnessB])
	naive := fdiam.DiameterNaive(g, fdiam.BaselineOptions{})
	fmt.Printf("brute-force check: %d (%d BFS traversals vs F-Diam's %d)\n",
		naive.Diameter, naive.BFSTraversals, s.BFSTraversals())
}
