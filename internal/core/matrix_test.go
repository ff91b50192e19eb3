package core

import (
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/par"
)

// The PR-1 substrate acceptance matrix: the reported diameter must be
// byte-identical across the generator catalog for every combination of
// worker width {1, 4, max} and direction optimization {on, off}. The
// direction heuristic and the worker pool may change which kernels run and
// in what order, but never the answer.
func TestDiameterMatrixWorkersDirOpt(t *testing.T) {
	catalog := map[string]*graph.Graph{
		"path":       gen.Path(1200),
		"cycle":      gen.Cycle(1100),
		"star":       gen.Star(1500),
		"binarytree": gen.BinaryTree(10),
		"lollipop":   gen.Lollipop(50, 300),
		"barbell":    gen.Barbell(40, 60),
		"grid":       gen.Grid2D(35, 35),
		"trigrid":    gen.TriangularGrid(28, 28),
		"road":       gen.RoadNetwork(30, 30, 0.1, 4),
		"geometric":  gen.RandomGeometric(1000, gen.RadiusForDegree(1000, 6), 5),
		"rmat":       gen.RMAT(10, 12, gen.DefaultRMAT, 6),
		"kronecker":  gen.Kronecker(10, 10, 7),
		"ba":         gen.BarabasiAlbert(1200, 4, 8),
		"copymodel":  gen.CopyModel(1200, 8, 0.5, 9),
		"whiskers":   gen.CoreWhiskers(1200, 6, 0.3, 5, 10),
		"smallworld": gen.WattsStrogatz(1200, 6, 0.1, 11),
		"erdosrenyi": gen.ErdosRenyi(1200, 3600, 12),
		"pendants":   gen.WithPendants(gen.RMAT(9, 8, gen.DefaultRMAT, 13), 200, 14),
		"chains":     gen.WithChains(gen.Kronecker(9, 8, 15), 25, 20, 16),
		"tree":       gen.RandomTree(1400, 17),
		"disjoint":   gen.Disjoint(gen.Grid2D(20, 20), gen.RMAT(8, 8, gen.DefaultRMAT, 18)),
	}
	widths := []int{1, 4, par.DefaultWorkers()}
	for name, g := range catalog {
		t.Run(name, func(t *testing.T) {
			ref := Diameter(g, Options{Workers: 1, DisableDirectionOpt: true})
			for _, w := range widths {
				for _, noDir := range []bool{false, true} {
					res := Diameter(g, Options{Workers: w, DisableDirectionOpt: noDir})
					if res.Diameter != ref.Diameter || res.Infinite != ref.Infinite {
						t.Errorf("workers=%d noDirOpt=%v: (diam=%d, inf=%v), want (%d, %v)",
							w, noDir, res.Diameter, res.Infinite, ref.Diameter, ref.Infinite)
					}
					if res.TimedOut {
						t.Errorf("workers=%d noDirOpt=%v: unexpected timeout", w, noDir)
					}
				}
			}
		})
	}
}
