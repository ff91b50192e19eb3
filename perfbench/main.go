// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints every metric by name and unit, then one JSON
// result line:
//
//	perfbench --workload solve-lowdiam|solve-highdiam|serve-mixed|all
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with nothing armed; --trace 1
// is the separate traced run that reports the per-layer metrics. "all"
// runs each workload in a fresh process. README.md describes the
// workloads and metrics; run.py builds and runs this program.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fdiam/internal/baseline"
)

// maxMeasure caps one timed loop so a run ends well inside its time limit
// even on a slow host.
const maxMeasure = 120 * time.Second

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	// refOffset is added to every reference answer; the smoke test uses it
	// to check that a wrong reference fails every operation.
	refOffset int32
	// spans is the file the traced run writes its spans to.
	spans string
}

// workload is one input set and how its answers are checked and its tail
// is taken.
type workload struct {
	name   string
	inputs []standIn
	ref    oracle
	// tailPct is the latency percentile reported as latency_ms.tail. A
	// run keeps measuring until at least ten samples lie beyond it.
	tailPct float64
	serve   bool
}

func workloads(z sizes) []*workload {
	return []*workload{
		{name: "solve-lowdiam", inputs: z.lowDiameter(), ref: baseline.IFUB, tailPct: 0.95},
		{name: "solve-highdiam", inputs: z.highDiameter(), ref: baseline.TakesKosters, tailPct: 0.75},
		{name: "serve-mixed", inputs: z.servePool(), ref: baseline.TakesKosters, tailPct: 0.99, serve: true},
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "solve-lowdiam, solve-highdiam, serve-mixed, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per timed loop")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(ctx, *seed, *seconds, *trace, stdout, stderr)
	}
	var w *workload
	for _, c := range workloads(sizes{}) {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds,
		spans: filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))}
	if err := measure(ctx, cfg, w, *trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure runs one workload and writes its manifest, metrics and result
// line.
func measure(ctx context.Context, cfg *config, w *workload, traced bool, out io.Writer) error {
	rep := newReport()
	man := newManifest(w.name, cfg.seed, traced)
	want := endToEnd
	var err error
	switch {
	case !traced && w.serve:
		err = runServe(ctx, cfg, w, rep, man)
	case !traced:
		err = runSolve(ctx, cfg, w, rep, man)
	default:
		want = perLayer
		err = traceRun(ctx, cfg, w, rep, man)
	}
	if err != nil {
		return err
	}
	if err := man.write(out); err != nil {
		return err
	}
	return rep.write(out, want)
}

// traceRun is the --trace 1 run: one input set, every layer, spans kept in
// memory and written out at the end with each layer's self time.
func traceRun(ctx context.Context, cfg *config, w *workload, rep *report, man *manifest) error {
	tr := newTracer()
	if w.serve {
		if err := traceServe(ctx, cfg, w, rep, man, tr); err != nil {
			return err
		}
	} else {
		gs, _ := buildSet(cfg, w.inputs, 0)
		set, err := referenceSet(cfg, w.inputs, gs, w.ref)
		if err != nil {
			return err
		}
		man.addGraphs(0, set)
		traceLayers(ctx, cfg, set, rep, tr)
	}
	self := tr.selfMS()
	for _, layer := range []string{"bench", "core", "bfs", "graph", "graphio", "http", "serve"} {
		rep.add("self_ms."+layer, self[layer], "ms", "span self time")
	}
	return tr.write(cfg.spans)
}

// runAll runs every workload in its own process, so the histograms
// serve.New arms process-wide never leak into a solve workload, then
// prints one combined result line with workload-qualified metric names.
func runAll(ctx context.Context, seed uint64, seconds float64, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads(sizes{}) {
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		last := lines[len(lines)-1]
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: result line: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
