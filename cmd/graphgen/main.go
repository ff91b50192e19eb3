// Command graphgen generates the synthetic graphs used in this repository
// and writes them to disk in any supported format.
//
// Usage:
//
//	graphgen -kind rmat -scale 16 -edgefactor 8 -seed 1 -o rmat16.txt
//	graphgen -kind grid -w 512 -h 512 -o grid.bin
//	graphgen -kind road -w 300 -h 300 -extra 0.4 -o ny-like.gr
//	graphgen -kind catalog -name rmat16.sym -o standin.bin
//
// Output format follows the file extension: .bin (binary CSR), .mtx
// (Matrix Market), .gr (DIMACS), .metis/.graph (METIS), otherwise edge list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fdiam/internal/bench"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	kind := fs.String("kind", "", "generator: grid, trigrid, path, cycle, star, rmat, kron, ba, copy, er, ws, rgg, road, tree, conn, catalog")
	outPath := fs.String("o", "", "output file (extension selects the format)")
	n := fs.Int("n", 1000, "vertex count (for n-parameterized generators)")
	w := fs.Int("w", 100, "grid width")
	h := fs.Int("h", 100, "grid height")
	scale := fs.Int("scale", 16, "RMAT/Kronecker scale (n = 2^scale)")
	edgeFactor := fs.Int("edgefactor", 8, "RMAT/Kronecker edges per vertex")
	k := fs.Int("k", 3, "edges per new vertex (ba) / lattice neighbors (ws)")
	extra := fs.Float64("extra", 0.2, "road: extra-edge fraction; conn: extra edges = n*extra")
	p := fs.Float64("p", 0.5, "copy probability (copy) / rewire probability (ws)")
	deg := fs.Float64("deg", 6, "target average degree (rgg)")
	seed := fs.Uint64("seed", 1, "random seed")
	name := fs.String("name", "", "catalog: workload name (e.g. rmat16.sym)")
	quick := fs.Bool("quick", false, "catalog: use quick-scale sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kind == "" || *outPath == "" {
		return fmt.Errorf("-kind and -o are required (see -h)")
	}

	var g *graph.Graph
	switch *kind {
	case "grid":
		g = gen.Grid2D(*w, *h)
	case "trigrid":
		g = gen.TriangularGrid(*w, *h)
	case "path":
		g = gen.Path(*n)
	case "cycle":
		g = gen.Cycle(*n)
	case "star":
		g = gen.Star(*n)
	case "rmat":
		g = gen.RMAT(*scale, *edgeFactor, gen.DefaultRMAT, *seed)
	case "kron":
		g = gen.Kronecker(*scale, *edgeFactor, *seed)
	case "ba":
		g = gen.BarabasiAlbert(*n, *k, *seed)
	case "copy":
		g = gen.CopyModel(*n, *k, *p, *seed)
	case "er":
		g = gen.ErdosRenyi(*n, int(float64(*n)**deg/2), *seed)
	case "ws":
		g = gen.WattsStrogatz(*n, *k, *p, *seed)
	case "rgg":
		g = gen.RandomGeometric(*n, gen.RadiusForDegree(*n, *deg), *seed)
	case "road":
		g = gen.RoadNetwork(*w, *h, *extra, *seed)
	case "tree":
		g = gen.RandomTree(*n, *seed)
	case "conn":
		g = gen.RandomConnected(*n, int(float64(*n)**extra), *seed)
	case "catalog":
		sc := bench.Full
		if *quick {
			sc = bench.Quick
		}
		wl := bench.Find(bench.Catalog(sc), *name)
		if wl == nil {
			return fmt.Errorf("unknown catalog workload %q", *name)
		}
		g = wl.Graph()
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}

	s := graph.ComputeStats(g)
	fmt.Fprintf(out, "generated: %s vertices, %s edges, avg degree %.2f, max degree %d, %d components\n",
		stats.FormatCount(int64(s.Vertices)), stats.FormatCount(s.Arcs/2),
		s.AvgDegree, s.MaxDegree, s.Components)

	return graphio.WriteFile(*outPath, g)
}
