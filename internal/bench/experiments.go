package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/stats"
)

// Table1 reproduces the paper's input-property table for the stand-ins:
// vertices, edges (incl. back edges), average degree, max degree, and the
// exact CC diameter, next to the paper's values for the original inputs.
func Table1(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Table 1: input graphs (stand-in | paper original)",
		"name", "vertices", "edges", "avgDeg", "maxDeg", "CCdiam",
		"paper:n", "paper:edges", "paper:diam")
	for _, wl := range workloads {
		g := wl.Graph()
		s := graph.ComputeStats(g)
		res := core.Diameter(g, core.Options{Workers: cfg.Workers, Timeout: cfg.Timeout})
		diam := fmt.Sprintf("%d", res.Diameter)
		if res.Infinite {
			diam += " (inf)"
		}
		if res.TimedOut {
			diam = "T/O"
		}
		t.Add(wl.Name,
			stats.FormatCount(int64(s.Vertices)), stats.FormatCount(s.Arcs),
			fmt.Sprintf("%.1f", s.AvgDegree), fmt.Sprintf("%d", s.MaxDegree), diam,
			stats.FormatCount(wl.Paper.Vertices), stats.FormatCount(wl.Paper.Edges),
			stats.FormatCount(wl.Paper.Diameter))
		wl.Release()
	}
	t.Render(w)
}

// MainRow holds the five headline-code measurements for one workload.
type MainRow struct {
	Workload *Workload
	Vertices int
	Results  []Measurement // in MainCodes order
}

// MainSweep measures the paper's five codes (Table 2 / Figure 6) on every
// workload. Workload graphs are released after use. With cfg.TraceDir set,
// each traceable code additionally does one untimed run per workload to
// emit a Chrome trace artifact.
func MainSweep(workloads []*Workload, cfg Config, progress io.Writer) []MainRow {
	codes := MainCodes()
	rows := make([]MainRow, 0, len(workloads))
	for _, wl := range workloads {
		g := wl.Graph()
		row := MainRow{Workload: wl, Vertices: g.NumVertices()}
		for _, c := range codes {
			if progress != nil {
				fmt.Fprintf(progress, "  %-18s %-14s ...", wl.Name, c.Name)
			}
			m := Measure(c, g, cfg)
			row.Results = append(row.Results, m)
			if progress != nil {
				if m.TimedOut {
					fmt.Fprintf(progress, " T/O\n")
				} else {
					fmt.Fprintf(progress, " %8.3fs  diam=%d\n", m.Runtime.Seconds(), m.Diameter)
				}
			}
			path, err := TraceArtifact(c, g, cfg, wl.Name+"-"+c.Name)
			if progress != nil {
				switch {
				case err != nil:
					fmt.Fprintf(progress, "    trace failed: %v\n", err)
				case path != "":
					fmt.Fprintf(progress, "    wrote %s\n", path)
				}
			}
		}
		rows = append(rows, row)
		wl.Release()
	}
	return rows
}

// Table2 renders the runtime table from a MainSweep.
func Table2(w io.Writer, rows []MainRow) {
	t := NewTable("Table 2: measured runtimes in seconds (T/O = timeout)  |  paper values",
		"graph", "F-Diam(ser)", "F-Diam(par)", "iFUB(ser)", "iFUB(par)", "Graph-Diam.",
		"p:FDser", "p:FDpar", "p:iFUBs", "p:iFUBp", "p:GD")
	for _, r := range rows {
		p := r.Workload.Paper
		t.Add(r.Workload.Name,
			fmtOrTO(r.Results[0].Runtime.Seconds(), r.Results[0].TimedOut),
			fmtOrTO(r.Results[1].Runtime.Seconds(), r.Results[1].TimedOut),
			fmtOrTO(r.Results[2].Runtime.Seconds(), r.Results[2].TimedOut),
			fmtOrTO(r.Results[3].Runtime.Seconds(), r.Results[3].TimedOut),
			fmtOrTO(r.Results[4].Runtime.Seconds(), r.Results[4].TimedOut),
			fmtOrTO(p.FDiamSer, false), fmtOrTO(p.FDiamPar, false),
			fmtOrTO(p.IFUBSer, false), fmtOrTO(p.IFUBPar, false), fmtOrTO(p.GraphDiam, false))
	}
	t.Render(w)
	summarizeSpeedups(w, rows)
}

// Fig6 renders the throughput series of Figure 6 (vertices/second, the
// paper plots it on a log scale).
func Fig6(w io.Writer, rows []MainRow) {
	t := NewTable("Figure 6: throughput in vertices/second (higher is better; T/O = timeout)",
		"graph", "F-Diam(ser)", "F-Diam(par)", "iFUB(ser)", "iFUB(par)", "Graph-Diam.")
	codes := MainCodes()
	geo := make([][]float64, len(codes))
	for _, r := range rows {
		cells := []string{r.Workload.Name}
		for i, m := range r.Results {
			if m.TimedOut {
				cells = append(cells, "T/O")
			} else {
				cells = append(cells, stats.FormatThroughput(m.Throughput))
				geo[i] = append(geo[i], m.Throughput)
			}
		}
		t.Add(cells...)
	}
	gm := []string{"geomean*"}
	for i := range codes {
		gm = append(gm, stats.FormatThroughput(stats.GeoMean(geo[i])))
	}
	t.Add(gm...)
	t.Render(w)
	fmt.Fprintln(w, "  * geomean over the inputs where the code did not time out")
	fmt.Fprintln(w)
}

// summarizeSpeedups prints the geomean speedups the paper headlines
// (F-Diam vs. iFUB and Graph-Diameter), computed — like the paper — only
// over inputs where neither code in a comparison timed out.
func summarizeSpeedups(w io.Writer, rows []MainRow) {
	pairs := []struct {
		name string
		a, b int // indices into MainCodes: speedup of a over b
	}{
		{"F-Diam(ser) vs iFUB(ser)", 0, 2},
		{"F-Diam(ser) vs iFUB(par)", 0, 3},
		{"F-Diam(ser) vs Graph-Diam.", 0, 4},
		{"F-Diam(par) vs iFUB(ser)", 1, 2},
		{"F-Diam(par) vs iFUB(par)", 1, 3},
		{"F-Diam(par) vs Graph-Diam.", 1, 4},
		{"F-Diam(par) vs F-Diam(ser)", 1, 0},
	}
	fmt.Fprintln(w, "Geomean speedups (throughput ratios over non-timeout inputs):")
	for _, p := range pairs {
		var ratios []float64
		for _, r := range rows {
			a, b := r.Results[p.a], r.Results[p.b]
			if !a.TimedOut && !b.TimedOut && a.Throughput > 0 && b.Throughput > 0 {
				ratios = append(ratios, a.Throughput/b.Throughput)
			}
		}
		if len(ratios) == 0 {
			fmt.Fprintf(w, "  %-28s n/a (no common inputs)\n", p.name)
			continue
		}
		min, max := stats.MinMax(ratios)
		fmt.Fprintf(w, "  %-28s %8.1fx  (min %.1fx, max %.1fx, %d inputs)\n",
			p.name, stats.GeoMean(ratios), min, max, len(ratios))
	}
	fmt.Fprintln(w)
}

// Table3 reproduces the BFS-traversal-count table: F-Diam counts its
// eccentricity BFS calls plus Winnow invocations (§6.3).
func Table3(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Table 3: number of BFS traversals  |  paper values",
		"graph", "F-Diam", "iFUB", "Graph-Diam.", "p:F-Diam", "p:iFUB", "p:GD")
	for _, wl := range workloads {
		g := wl.Graph()
		fd := FDiamPar.Run(g, cfg.Workers, cfg.Timeout)
		ifub := IFUBSer.Run(g, cfg.Workers, cfg.Timeout)
		gd := GraphDiam.Run(g, cfg.Workers, cfg.Timeout)
		p := wl.Paper
		t.Add(wl.Name,
			fmtCountOrTO(fd.Traversals, fd.TimedOut),
			fmtCountOrTO(ifub.Traversals, ifub.TimedOut),
			fmtCountOrTO(gd.Traversals, gd.TimedOut),
			fmtCountOrTO(p.BFSFDiam, false),
			fmtCountOrTO(p.BFSIFUB, false),
			fmtCountOrTO(p.BFSGraphDiam, false))
		wl.Release()
	}
	t.Render(w)
}

// Table4 reproduces the stage-effectiveness table: the percentage of
// vertices removed by Winnow, Eliminate, and Chain Processing, plus
// degree-0 vertices.
func Table4(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Table 4: % of vertices removed per stage  |  paper values",
		"graph", "Winnow", "Elim.", "Chain", "Deg-0", "BFS'd",
		"p:Win", "p:Elim", "p:Chain", "p:Deg0")
	for _, wl := range workloads {
		g := wl.Graph()
		res := core.Diameter(g, core.Options{Workers: cfg.Workers, Timeout: cfg.Timeout})
		s := res.Stats
		p := wl.Paper
		t.Add(wl.Name,
			fmt.Sprintf("%.2f%%", s.PctWinnow()),
			fmt.Sprintf("%.2f%%", s.PctEliminate()),
			fmt.Sprintf("%.2f%%", s.PctChain()),
			fmt.Sprintf("%.2f%%", s.PctDegree0()),
			fmt.Sprintf("%.2f%%", s.PctComputed()),
			fmt.Sprintf("%.2f%%", p.PctWinnow),
			fmt.Sprintf("%.2f%%", p.PctElim),
			fmt.Sprintf("%.2f%%", p.PctChain),
			fmt.Sprintf("%.2f%%", p.PctDeg0))
		wl.Release()
	}
	t.Render(w)
}

// Fig7 reproduces the thread-scaling study: geomean F-Diam throughput over
// all workloads for each thread count (1, 2, 4, ... up to the machine).
func Fig7(w io.Writer, workloads []*Workload, cfg Config) {
	maxW := cfg.Workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	var threadCounts []int
	for tc := 1; tc < maxW; tc *= 2 {
		threadCounts = append(threadCounts, tc)
	}
	threadCounts = append(threadCounts, maxW)

	t := NewTable("Figure 7: geomean F-Diam throughput (vertices/s) by thread count",
		"threads", "geomean throughput", "speedup vs 1 thread")
	// Workloads run outermost, each released after its last thread count,
	// so a full-scale sweep holds one graph at a time.
	tps := make([][]float64, len(threadCounts))
	for _, wl := range workloads {
		g := wl.Graph()
		for i, tc := range threadCounts {
			c := Config{Runs: cfg.Runs, Timeout: cfg.Timeout, Workers: tc}
			m := Measure(FDiamPar, g, c)
			if !m.TimedOut && m.Throughput > 0 {
				tps[i] = append(tps[i], m.Throughput)
			}
		}
		wl.Release()
	}
	var base float64
	for i, tc := range threadCounts {
		gm := stats.GeoMean(tps[i])
		if base == 0 {
			base = gm
		}
		speedup := "1.00x"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", gm/base)
		}
		t.Add(fmt.Sprintf("%d", tc), stats.FormatThroughput(gm), speedup)
	}
	t.Render(w)
}

// Fig8 reproduces the runtime-breakdown figure: the fraction of F-Diam's
// runtime spent in eccentricity BFS, Winnow, Chain, Eliminate, and other.
func Fig8(w io.Writer, workloads []*Workload, cfg Config) {
	t := NewTable("Figure 8: % of F-Diam runtime per stage",
		"graph", "ecc BFS", "Winnow", "Chain", "Elim.", "other")
	for _, wl := range workloads {
		g := wl.Graph()
		res := core.Diameter(g, core.Options{Workers: cfg.Workers, Timeout: cfg.Timeout})
		s := res.Stats
		tot := s.TimeTotal
		if tot <= 0 {
			tot = time.Nanosecond
		}
		pct := func(d time.Duration) string {
			return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(tot))
		}
		t.Add(wl.Name, pct(s.TimeEcc), pct(s.TimeWinnow), pct(s.TimeChain),
			pct(s.TimeEliminate), pct(s.TimeOther()+s.TimeInit))
		wl.Release()
	}
	t.Render(w)
}

// Table5 reproduces the ablation BFS-count table (full F-Diam, no Winnow,
// no Eliminate, no max-degree start).
func Table5(w io.Writer, workloads []*Workload, cfg Config) {
	codes := AblationCodes(cfg.Workers)
	t := NewTable("Table 5: BFS calls in different F-Diam versions  |  paper values",
		"graph", "F-Diam", "no Winnow", "no Elim.", "no 'u'",
		"p:FD", "p:noWin", "p:noElim", "p:noU")
	for _, wl := range workloads {
		g := wl.Graph()
		cells := []string{wl.Name}
		for _, c := range codes {
			o := c.Run(g, cfg.Workers, cfg.Timeout)
			cells = append(cells, fmtCountOrTO(o.Traversals, o.TimedOut))
		}
		p := wl.Paper
		cells = append(cells,
			fmtCountOrTO(p.BFSFDiam, false), fmtCountOrTO(p.BFSNoWinnow, false),
			fmtCountOrTO(p.BFSNoElim, false), fmtCountOrTO(p.BFSNoU, false))
		t.Add(cells...)
		wl.Release()
	}
	t.Render(w)
}

// Fig9 reproduces the ablation throughput figure (all versions parallel).
func Fig9(w io.Writer, workloads []*Workload, cfg Config) {
	codes := AblationCodes(cfg.Workers)
	t := NewTable("Figure 9: throughput of F-Diam variants (vertices/s; T/O = timeout)",
		"graph", "F-Diam", "no Winnow", "no Elim.", "no 'u'")
	geo := make([][]float64, len(codes))
	fullTP := map[string]float64{}
	for _, wl := range workloads {
		g := wl.Graph()
		cells := []string{wl.Name}
		for i, c := range codes {
			m := Measure(c, g, cfg)
			if m.TimedOut {
				cells = append(cells, "T/O")
			} else {
				cells = append(cells, stats.FormatThroughput(m.Throughput))
				geo[i] = append(geo[i], m.Throughput)
				if i == 0 {
					fullTP[wl.Name] = m.Throughput
				}
			}
		}
		t.Add(cells...)
		wl.Release()
	}
	gm := []string{"geomean*"}
	for i := range codes {
		gm = append(gm, stats.FormatThroughput(stats.GeoMean(geo[i])))
	}
	t.Add(gm...)
	t.Render(w)
	fmt.Fprintln(w, "  * geomean over non-timeout inputs; the paper reports the ablations at")
	fmt.Fprintln(w, "    2% (no Winnow), 22% (no Eliminate), and 17% (no 'u') of full speed")
	fmt.Fprintln(w)
}
