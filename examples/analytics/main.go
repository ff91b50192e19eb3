// Network analytics beyond the diameter: the full eccentricity
// distribution — radius, center (best broadcast origins), periphery (the
// vertices that realize the diameter) — computed with eccentricity
// bounding instead of n BFS traversals. This is the companion problem the
// diameter literature (including the paper's related work) repeatedly
// touches: once a few strategic BFS traversals bound every vertex, the
// whole distribution falls out.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"time"

	"fdiam"
)

func main() {
	// A mid-sized web-like network with core–periphery structure.
	fmt.Println("generating network (n=20k, power-law core + periphery)...")
	g := fdiam.NewSocialNetwork(20_000, 6, 0.15, 10, 42)
	s := fdiam.ComputeGraphStats(g)
	fmt.Printf("network: %d vertices, %d edges, avg degree %.1f\n\n", s.Vertices, s.Arcs/2, s.AvgDegree)

	start := time.Now()
	info := fdiam.AnalyzeNetwork(g, 0)
	elapsed := time.Since(start)

	fmt.Printf("eccentricity distribution computed in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  diameter:  %d (realized by %d periphery vertices)\n", info.Diameter, len(info.Periphery))
	fmt.Printf("  radius:    %d (attained by %d center vertices)\n", info.Radius, len(info.Center))

	// Theorem 3 of the paper, live: radius ≥ diameter/2.
	fmt.Printf("  check:     radius %d ≥ diameter/2 = %d (paper Theorem 3)\n\n", info.Radius, info.Diameter/2)

	// Histogram of eccentricities: core–periphery networks show a sharp
	// low-eccentricity core and a long peripheral tail.
	hist := map[int32]int{}
	for _, e := range info.Eccs {
		hist[e]++
	}
	fmt.Println("eccentricity histogram:")
	for e := info.Radius; e <= info.Diameter; e++ {
		if hist[e] == 0 {
			continue
		}
		bar := hist[e] * 50 / len(info.Eccs)
		fmt.Printf("  ecc %3d: %7d %s\n", e, hist[e], stars(bar))
	}

	// Compare traversal budgets: bounding vs brute force.
	fmt.Printf("\nBFS traversals used: %d (brute force would use %d — %.1fx saved)\n",
		info.BFSTraversals, s.Vertices, float64(s.Vertices)/float64(info.BFSTraversals))

	// And the diameter-only question, for perspective: F-Diam needs far
	// fewer still, because it never has to resolve per-vertex values.
	res := fdiam.Diameter(g)
	fmt.Printf("diameter-only (F-Diam): %d traversals — the diameter is much cheaper than the distribution\n",
		res.Stats.BFSTraversals())
}

func stars(n int) string {
	if n > 50 {
		n = 50
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
