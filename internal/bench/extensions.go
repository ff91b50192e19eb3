package bench

import (
	"fmt"
	"io"
	"time"

	"fdiam/internal/baseline"
	"fdiam/internal/core"
	"fdiam/internal/graph"
)

// Extension experiments beyond the paper's tables: each measures a claim
// the paper makes in passing (the 2-sweep bound is often very close, the
// direction-optimized hybrid pays) or the served approximation mode.

// approxSweeps is the double-sweep budget TableApprox gives the estimator:
// the default fdiamd applies to a ?mode=approx request.
const approxSweeps = 4

// TableApprox measures the served estimator — approximation mode
// (core.Options.Approx), the path behind fdiamd's ?mode=approx — against
// the exact diameter: the proven corridor [Diameter, Upper], its gap,
// whether the exact value lies inside it, and the traversal budget.
func TableApprox(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable(fmt.Sprintf("Extension table: approximation mode (%d double sweeps) vs exact", approxSweeps),
		"graph", "exact", "corridor", "gap", "exact inside", "BFS")
	for _, wl := range workloads {
		g := wl.Graph()
		exact := FDiamPar.Run(g, cfg.Workers, cfg.Timeout)
		approx := core.Diameter(g, core.Options{Workers: cfg.Workers, Timeout: cfg.Timeout,
			Approx: core.ApproxOptions{Sweeps: approxSweeps, Seed: 1}})
		inside := "n/a"
		if !exact.TimedOut && !approx.TimedOut {
			inside = "yes"
			if exact.Diameter < approx.Diameter || exact.Diameter > approx.Upper {
				inside = "NO"
			}
		}
		t.Add(wl.Name,
			fmtCountOrTO(int64(exact.Diameter), exact.TimedOut),
			fmt.Sprintf("[%d, %d]", approx.Diameter, approx.Upper),
			fmt.Sprintf("%d", approx.Gap), inside,
			fmt.Sprintf("%d", approx.Stats.BFSTraversals()))
		wl.Release()
	}
	t.Render(w)
}

// TableTwoSweep measures how tight the 2-sweep initial bound is — the
// paper notes it is "often very close to the exact diameter" (§4.2), which
// is what makes the first Winnow so effective. Also reports the 4-SWEEP
// bound iFUB uses.
func TableTwoSweep(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Extension table: initial lower-bound tightness (2-sweep seeds F-Diam, 4-sweep seeds iFUB)",
		"graph", "diameter", "2-sweep", "gap", "4-sweep", "gap")
	for _, wl := range workloads {
		g := wl.Graph()
		out := FDiamPar.Run(g, cfg.Workers, cfg.Timeout)
		start := g.MaxDegreeVertex()
		two := baseline.TwoSweepLB(g, start, baseline.Options{Workers: cfg.Workers})
		four, _ := baseline.FourSweepLB(g, start, baseline.Options{Workers: cfg.Workers})
		t.Add(wl.Name,
			fmtCountOrTO(int64(out.Diameter), out.TimedOut),
			fmt.Sprintf("%d", two), fmt.Sprintf("%d", out.Diameter-two),
			fmt.Sprintf("%d", four), fmt.Sprintf("%d", out.Diameter-four))
		wl.Release()
	}
	t.Render(w)
}

// TableDirOpt measures the contribution of the direction-optimized BFS
// (the hybrid the paper adopts from Beamer et al.): parallel F-Diam with
// and without the bottom-up switch.
func TableDirOpt(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Extension table: direction-optimized BFS ablation",
		"graph", "hybrid", "top-down only", "speedup")
	for _, wl := range workloads {
		g := wl.Graph()
		hybrid := Measure(FDiamPar, g, cfg)
		plain := Measure(Code{Name: "top-down", Run: func(gg *graph.Graph, workers int, to time.Duration) Outcome {
			return fromCore(coreDiameterNoDirOpt(gg, workers, to))
		}}, g, cfg)
		speed := "n/a"
		if !hybrid.TimedOut && !plain.TimedOut && hybrid.Runtime > 0 {
			speed = fmt.Sprintf("%.2fx", float64(plain.Runtime)/float64(hybrid.Runtime))
		}
		t.Add(wl.Name,
			fmtOrTO(hybrid.Runtime.Seconds(), hybrid.TimedOut),
			fmtOrTO(plain.Runtime.Seconds(), plain.TimedOut),
			speed)
		wl.Release()
	}
	t.Render(w)
}
