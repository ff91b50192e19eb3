package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"fdiam/internal/baseline"
	"fdiam/internal/core"
	"fdiam/internal/ecc"
	"fdiam/internal/graph"
	"fdiam/internal/stats"
)

// Extension experiments beyond the paper's evaluation: the related-work
// algorithm the paper discusses but does not benchmark (Korf's
// partial-BFS), naive all-pairs BFS, the stronger Takes–Kosters selection,
// and the bounded all-eccentricities computation. They document where
// F-Diam's advantage comes from and what the neighboring design points
// cost.

// ExtensionCodes returns the additional diameter codes.
func ExtensionCodes() []Code {
	return []Code{
		FDiamPar,
		{Name: "Takes-Kosters", Run: func(g *graph.Graph, workers int, to time.Duration) Outcome {
			return fromBaseline(baseline.TakesKosters(g, baseline.Options{Workers: workers, Timeout: to}))
		}},
		{Name: "Korf", Run: func(g *graph.Graph, workers int, to time.Duration) Outcome {
			return fromBaseline(baseline.Korf(g, baseline.Options{Workers: workers, Timeout: to}))
		}},
		{Name: "Naive APSP-BFS", Run: func(g *graph.Graph, workers int, to time.Duration) Outcome {
			return fromBaseline(baseline.Naive(g, baseline.Options{Workers: workers, Timeout: to}))
		}},
	}
}

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

// TableExtensions measures the extension codes on every workload: runtime
// and traversal count per code.
func TableExtensions(w io.Writer, workloads []*Workload, cfg Config) {
	codes := ExtensionCodes()
	header := []string{"graph"}
	for _, c := range codes {
		header = append(header, c.Name, "BFS")
	}
	t := NewTable("Extension table: related-work algorithms the paper discusses but does not run (runtime s | BFS traversals)", header...)
	for _, wl := range workloads {
		g := wl.Graph()
		cells := []string{wl.Name}
		for _, c := range codes {
			m := Measure(c, g, cfg)
			cells = append(cells,
				fmtOrTO(m.Runtime.Seconds(), m.TimedOut),
				fmtCountOrTO(m.Traversals, m.TimedOut))
		}
		t.Add(cells...)
		wl.Release()
	}
	t.Render(w)
}

// TableAllEcc measures the bounded all-eccentricities computation
// (ecc.FastInfo: diameter, plus radius of the largest component, plus the
// full distribution) against brute force, reporting the traversal savings.
// Cancelling ctx stops mid-catalog with the rows rendered so far (a
// truncated eccentricity run is reported as such).
func TableAllEcc(ctx context.Context, w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Extension table: all-vertex eccentricities via bounding (vs n brute-force BFS)",
		"graph", "vertices", "BFS used", "saving", "diameter", "radius", "time")
	for _, wl := range workloads {
		g := wl.Graph()
		n := g.NumVertices()
		start := time.Now()
		info := ecc.FastInfo(ctx, g, cfg.Workers)
		elapsed := time.Since(start)
		saving := "n/a"
		if info.BFSTraversals > 0 {
			saving = fmt.Sprintf("%.1fx", float64(n)/float64(info.BFSTraversals))
		}
		diamCol := fmt.Sprintf("%d", info.Diameter)
		if info.Truncated {
			diamCol += " (truncated)"
		}
		t.Add(wl.Name, stats.FormatCount(int64(n)),
			fmt.Sprintf("%d", info.BFSTraversals), saving,
			diamCol, fmt.Sprintf("%d", info.Radius),
			elapsed.Round(time.Millisecond).String())
		wl.Release()
		if ctx.Err() != nil {
			break
		}
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
