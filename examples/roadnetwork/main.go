// Road-network analysis: the diameter of a road graph bounds the worst-case
// driving distance (in segments) between any two intersections. This is
// the topology class where the paper's baselines time out (USA-road-d,
// europe_osm): huge diameter, tiny average degree.
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"time"

	"fdiam"
)

func main() {
	// A synthetic road map: random spanning tree of a 250×250 grid plus
	// 40% of the remaining grid edges — the USA-road-d.NY profile (avg
	// degree 2.8, max degree 4, large diameter).
	fmt.Println("generating road network (250x250 base grid)...")
	g := fdiam.NewRoadNetwork(250, 250, 0.40, 2025)
	s := fdiam.ComputeGraphStats(g)
	fmt.Printf("road graph: %d intersections, %d road segments, avg degree %.2f\n\n",
		s.Vertices, s.Arcs/2, s.AvgDegree)

	// Exact diameter with F-Diam (parallel).
	start := time.Now()
	res := fdiam.Diameter(g)
	fdTime := time.Since(start)
	fmt.Printf("F-Diam:       diameter %d in %v (%d BFS traversals)\n",
		res.Diameter, fdTime.Round(time.Millisecond), res.Stats.BFSTraversals())

	// The same with the serial variant.
	start = time.Now()
	ser := fdiam.DiameterWithOptions(g, fdiam.Options{Workers: 1})
	serTime := time.Since(start)
	fmt.Printf("F-Diam (ser): diameter %d in %v\n", ser.Diameter, serTime.Round(time.Millisecond))

	// And with the bounding baseline (the paper's Graph-Diameter), with a
	// generous timeout — on road networks it needs full-graph bound
	// updates per BFS.
	start = time.Now()
	bd := fdiam.DiameterBounding(g, fdiam.BaselineOptions{Timeout: 2 * time.Minute})
	bdTime := time.Since(start)
	if bd.TimedOut {
		fmt.Printf("Graph-Diam.:  timed out after %v (paper's iFUB also times out on road maps)\n", bdTime.Round(time.Second))
	} else {
		fmt.Printf("Graph-Diam.:  diameter %d in %v (%d BFS traversals) — %.1fx slower than F-Diam\n",
			bd.Diameter, bdTime.Round(time.Millisecond), bd.BFSTraversals,
			float64(bdTime)/float64(fdTime))
	}

	fmt.Printf("\nstage breakdown: winnow removed %.1f%%, eliminate %.1f%%, chains (dead ends) %.1f%%\n",
		res.Stats.PctWinnow(), res.Stats.PctEliminate(), res.Stats.PctChain())
}
