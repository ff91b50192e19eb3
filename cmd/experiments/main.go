// Command experiments regenerates every table and figure of the paper's
// evaluation section (Tables 1–5, Figures 6–9) on the 17 synthetic
// stand-ins, printing measured numbers next to the paper's published
// values. DESIGN.md documents the stand-in for each input; EXPERIMENTS.md
// records a full paper-vs-measured run.
//
// Usage:
//
//	experiments -run all                 # everything, quick scale
//	experiments -run table2 -scale full  # one experiment at full scale
//	experiments -run fig7 -runs 3
//	experiments -workloads rmat16.sym,USA-road-d.NY -run table4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fdiam/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	which := fs.String("run", "all", "experiment: table1..table5, fig6..fig9, all; extensions beyond the paper: ext-diropt, ext-twosweep, ext-approx, ext")
	scaleFlag := fs.String("scale", "quick", "stand-in scale: quick or full")
	runs := fs.Int("runs", 3, "timed repetitions per measurement (median reported; the paper uses 9)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-run timeout (the paper used 2.5h at full dataset scale)")
	workers := fs.Int("workers", 0, "workers for the parallel codes (0 = all CPUs)")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload names (default: all 17)")
	traceDir := fs.String("tracedir", "", "write a Chrome trace artifact per (workload, F-Diam code) into this directory during the main sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fmt.Errorf("tracedir: %w", err)
		}
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		return fmt.Errorf("unknown -scale %q", *scaleFlag)
	}
	cfg := bench.Config{Runs: *runs, Timeout: *timeout, Workers: *workers, TraceDir: *traceDir}

	workloads, err := selectWorkloads(bench.Catalog(scale), *workloadsFlag)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "F-Diam reproduction experiments (scale=%s, runs=%d, timeout=%s)\n",
		*scaleFlag, *runs, *timeout)
	fmt.Fprintf(out, "paper columns (p:) are the published values at the original dataset sizes;\n")
	fmt.Fprintf(out, "compare shapes (who wins, rough factors), not absolute numbers.\n\n")

	selected := strings.Split(*which, ",")
	want := func(name string) bool {
		for _, s := range selected {
			s = strings.TrimSpace(s)
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}
	ran := false

	if want("table1") {
		ran = true
		bench.Table1(out, workloads, cfg)
	}
	if want("table2") || want("fig6") {
		ran = true
		fmt.Fprintln(out, "Running the main sweep (Table 2 + Figure 6)...")
		rows := bench.MainSweep(workloads, cfg, out)
		fmt.Fprintln(out)
		if want("table2") {
			bench.Table2(out, rows)
		}
		if want("fig6") {
			bench.Fig6(out, rows)
		}
	}
	if want("table3") {
		ran = true
		bench.Table3(out, workloads, cfg)
	}
	if want("table4") {
		ran = true
		bench.Table4(out, workloads, cfg)
	}
	if want("fig7") {
		ran = true
		bench.Fig7(out, workloads, cfg)
	}
	if want("fig8") {
		ran = true
		bench.Fig8(out, workloads, cfg)
	}
	if want("table5") {
		ran = true
		bench.Table5(out, workloads, cfg)
	}
	if want("fig9") {
		ran = true
		bench.Fig9(out, workloads, cfg)
	}
	// Extension experiments are opt-in ("ext" selects all of them); "all"
	// covers only the paper's artifacts.
	wantExt := func(name string) bool {
		for _, s := range selected {
			s = strings.TrimSpace(s)
			if s == "ext" || s == name {
				return true
			}
		}
		return false
	}
	if wantExt("ext-diropt") {
		ran = true
		bench.TableDirOpt(out, workloads, cfg)
	}
	if wantExt("ext-twosweep") {
		ran = true
		bench.TableTwoSweep(out, workloads, cfg)
	}
	if wantExt("ext-approx") {
		ran = true
		bench.TableApprox(out, workloads, cfg)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return nil
}

// selectWorkloads resolves the comma-separated -workloads list against the
// catalog (empty selects all of it). Every experiment shares the result, so
// an unknown name fails the run once, before anything is measured.
func selectWorkloads(all []*bench.Workload, list string) ([]*bench.Workload, error) {
	if list == "" {
		return all, nil
	}
	var picked []*bench.Workload
	var unknown []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if w := bench.Find(all, name); w != nil {
			picked = append(picked, w)
		} else {
			unknown = append(unknown, strconv.Quote(name))
		}
	}
	if len(unknown) > 0 {
		valid := make([]string, len(all))
		for i, w := range all {
			valid[i] = w.Name
		}
		return nil, fmt.Errorf("unknown workload %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return picked, nil
}
