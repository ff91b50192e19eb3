// Command fdiam computes the exact diameter of a graph file with the
// F-Diam algorithm or one of the baseline algorithms.
//
// Usage:
//
//	fdiam [flags] <graph-file>
//
// ".metis"/".graph" files are read as METIS; every other input format is
// auto-detected: fdiam binary CSR, Matrix Market (SuiteSparse), DIMACS sp
// (USA-road-d), or a plain whitespace edge list (SNAP). Disconnected inputs
// are flagged and the largest eccentricity over all components is reported,
// matching the paper's convention.
//
// Examples:
//
//	fdiam road.gr
//	fdiam -algo ifub -workers 1 -timeout 2.5h web.txt
//	fdiam -stats -v snap-edges.txt
//	fdiam -trace run.json -json web.txt
//	fdiam -http :6060 -progress 2s road.gr
//	fdiam -checkpoint-dir ./ckpt -checkpoint-interval 30s huge.gr
//	fdiam -epsilon 2 huge.gr
//	fdiam -approx 8 huge.gr
//
// With -checkpoint-dir, the solver snapshots its state there periodically;
// re-running the same command after an interruption (Ctrl-C, crash, kill -9)
// resumes from the snapshot instead of starting over, redoing at most one
// checkpoint interval of work.
//
// -epsilon and -approx trade exactness for time, but never soundness: the
// reported corridor [diameter, upper] always contains the true diameter.
// -epsilon N stops the solve once upper − lower ≤ N (an ε-stopped
// checkpointed run records N in its snapshot, so a plain resume keeps
// honoring it; resume with -epsilon -1 to force an exact finish). -approx K
// skips the main loop entirely and builds the corridor from K double
// sweeps.
//
// Exit codes distinguish how a run ended, so scripts and batch drivers can
// branch without parsing output:
//
//	0  the solve finished (exact or approximate as requested)
//	1  usage, input or I/O error — nothing was solved
//	3  the solve was cancelled (Ctrl-C); the best lower bound was reported
//	4  the solve hit -timeout; the best lower bound was reported
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"fdiam/internal/baseline"
	"fdiam/internal/checkpoint"
	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
	"fdiam/internal/stats"
)

// Exit codes (documented in the package comment above).
const (
	exitOK        = 0
	exitError     = 1
	exitCancelled = 3
	exitTimedOut  = 4
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdiam:", err)
	}
	os.Exit(code)
}

// run executes one CLI invocation and returns the process exit code. A
// non-nil error always pairs with exitError; cancelled and timed-out
// solves return their distinct codes with a nil error because the partial
// result was still reported.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("fdiam", flag.ContinueOnError)
	algo := fs.String("algo", "fdiam", "algorithm: fdiam, ifub, bounding, naive")
	workers := fs.Int("workers", 0, "parallel workers inside each BFS (0 = all CPUs, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none); the paper used 2.5h")
	showStats := fs.Bool("stats", false, "print F-Diam stage statistics (BFS counts, removal %, timings)")
	noWinnow := fs.Bool("no-winnow", false, "disable Winnow (ablation); fdiam only")
	noElim := fs.Bool("no-eliminate", false, "disable Eliminate (ablation); fdiam only")
	noChain := fs.Bool("no-chain", false, "disable Chain Processing (ablation); fdiam only")
	noU := fs.Bool("no-u", false, "start from vertex 0 instead of the max-degree vertex (ablation); fdiam only")
	noDirOpt := fs.Bool("no-diropt", false, "force plain top-down BFS (disable the bottom-up switch); fdiam only")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	verbose := fs.Bool("v", false, "print graph statistics before solving")
	jsonOut := fs.Bool("json", false, "print the result as a single JSON object")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (chrome://tracing, Perfetto); fdiam only")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")
	progress := fs.Duration("progress", 0, "log a one-line progress status to stderr at this interval; fdiam only")
	ckDir := fs.String("checkpoint-dir", "", "write crash-safe snapshots here and auto-resume from an existing one; fdiam only")
	ckEvery := fs.Duration("checkpoint-interval", 0, "snapshot cadence (0 = solver default 10s); fdiam only")
	epsilon := fs.Int("epsilon", 0, "stop once upper − lower ≤ this tolerance and report the corridor (0 = exact, -1 = force exact even when resuming an ε snapshot); fdiam only")
	approxSweeps := fs.Int("approx", 0, "approximate: spend this many double sweeps instead of the exact solve and report the corridor; fdiam only")
	logFormat := fs.String("log-format", "", "emit structured solver logs to stderr: text or json (empty = off)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error (debug includes stage and bound events)")
	if err := fs.Parse(args); err != nil {
		return exitError, err
	}
	if fs.NArg() != 1 {
		return exitError, fmt.Errorf("usage: fdiam [flags] <graph-file> (see -h)")
	}
	// The baselines take only -workers and -timeout; an F-Diam-only flag
	// beside them would be silently ignored.
	if *algo != "fdiam" && (*traceFile != "" || *progress != 0 || *ckDir != "" || *ckEvery != 0 ||
		*epsilon != 0 || *approxSweeps != 0 || *noWinnow || *noElim || *noChain || *noU || *noDirOpt) {
		return exitError, fmt.Errorf("-trace, -progress, -checkpoint-dir, -checkpoint-interval, -epsilon, -approx and the ablation flags (-no-winnow, -no-eliminate, -no-chain, -no-u, -no-diropt) require -algo fdiam")
	}
	if *epsilon < -1 {
		return exitError, fmt.Errorf("-epsilon %d: use a tolerance ≥ 0, or -1 to force exactness on resume", *epsilon)
	}
	if *approxSweeps < 0 {
		return exitError, fmt.Errorf("-approx %d: the sweep budget cannot be negative", *approxSweeps)
	}

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, nil)
		if err != nil {
			return exitError, fmt.Errorf("http: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fdiam: serving /metrics, /debug/pprof on http://%s\n", srv.Addr())
		// A scrapeable process arms the histograms and the runtime
		// sampler; without -http they stay disarmed so the solver's
		// zero-overhead default holds.
		obs.Default().ArmHistograms(true)
		stopSampler := obs.StartRuntimeSampler(obs.Default(), 10*time.Second)
		defer stopSampler()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return exitError, fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exitError, fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdiam: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fdiam: memprofile:", err)
			}
		}()
	}

	g, err := graphio.ReadFile(fs.Arg(0))
	if err != nil {
		return exitError, err
	}
	if *verbose {
		s := graph.ComputeStats(g)
		fmt.Fprintf(out, "graph: %s vertices, %s arcs, avg degree %.1f, max degree %s, %d components\n",
			stats.FormatCount(int64(s.Vertices)), stats.FormatCount(s.Arcs),
			s.AvgDegree, stats.FormatCount(int64(s.MaxDegree)), s.Components)
	}

	// Ctrl-C cancels the solver at the next BFS level boundary and reports
	// the best lower bound found so far instead of killing the process; a
	// second interrupt falls back to the default handler and kills it.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *logFormat != "" {
		lg, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
		if err != nil {
			return exitError, err
		}
		ctx = obs.ContextWithLogger(ctx, lg)
	}

	start := time.Now()
	switch *algo {
	case "fdiam":
		// An observability run is attached only for -trace or -progress;
		// nil keeps the solver's zero-overhead path.
		var trace *obs.Run
		if *traceFile != "" || *progress != 0 {
			var cfg obs.Config
			if *traceFile != "" {
				f, err := os.Create(*traceFile)
				if err != nil {
					return exitError, fmt.Errorf("trace: %w", err)
				}
				defer f.Close()
				cfg.ChromeTrace = f
			}
			trace = obs.NewRun(cfg)
			if *progress != 0 {
				stop := trace.LogProgress(os.Stderr, *progress)
				defer stop()
			}
		}
		ck := core.CheckpointOptions{Dir: *ckDir, Every: *ckEvery}
		if *ckDir != "" {
			// Auto-resume: a snapshot in the checkpoint dir is what a
			// previous interrupted run of (presumably) this graph left
			// behind; a mismatched graph is rejected by validation and the
			// solve falls back to fresh.
			if snap := filepath.Join(*ckDir, checkpoint.FileName); fileExists(snap) {
				ck.ResumeFrom = snap
			}
		}
		res := core.DiameterCtx(ctx, g, core.Options{
			Workers:             *workers,
			Timeout:             *timeout,
			DisableWinnow:       *noWinnow,
			DisableEliminate:    *noElim,
			DisableChain:        *noChain,
			StartAtVertexZero:   *noU,
			DisableDirectionOpt: *noDirOpt,
			Checkpoint:          ck,
			Trace:               trace,
			Epsilon:             int32(*epsilon),
			Approx:              core.ApproxOptions{Sweeps: *approxSweeps},
		})
		if res.ResumeError != "" {
			fmt.Fprintf(os.Stderr, "fdiam: checkpoint resume failed (%s); solved from scratch\n", res.ResumeError)
		} else if res.Resumed {
			fmt.Fprintln(os.Stderr, "fdiam: resumed from checkpoint")
		}
		elapsed := time.Since(start)
		if trace != nil {
			if err := trace.Finish(); err != nil {
				return exitError, fmt.Errorf("trace: %w", err)
			}
		}
		if *jsonOut {
			if err := writeJSON(out, *algo, fs.Arg(0), res.Diameter, res.Upper, res.Infinite,
				res.TimedOut, res.Cancelled, res.Approximate, res.WitnessA, res.WitnessB, elapsed, &res.Stats, 0); err != nil {
				return exitError, err
			}
			return solveExitCode(res.TimedOut, res.Cancelled), nil
		}
		report(out, res.Diameter, res.Upper, res.Infinite, res.TimedOut, res.Cancelled, res.Approximate, elapsed)
		if *showStats {
			fmt.Fprintf(out, "stats: %s\n", res.Stats.String())
		}
		return solveExitCode(res.TimedOut, res.Cancelled), nil
	case "ifub", "bounding", "naive":
		opt := baseline.Options{Workers: *workers, Timeout: *timeout}
		var res baseline.Result
		switch *algo {
		case "ifub":
			res = baseline.IFUB(g, opt)
		case "bounding":
			res = baseline.Bounding(g, opt)
		case "naive":
			res = baseline.Naive(g, opt)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			if err := writeJSON(out, *algo, fs.Arg(0), res.Diameter, res.Diameter, res.Infinite,
				res.TimedOut, false, false, graph.NoVertex, graph.NoVertex, elapsed, nil, res.BFSTraversals); err != nil {
				return exitError, err
			}
			return solveExitCode(res.TimedOut, false), nil
		}
		report(out, res.Diameter, res.Diameter, res.Infinite, res.TimedOut, false, false, elapsed)
		if *showStats {
			fmt.Fprintf(out, "stats: bfs-traversals=%d\n", res.BFSTraversals)
		}
		return solveExitCode(res.TimedOut, false), nil
	default:
		return exitError, fmt.Errorf("unknown -algo %q", *algo)
	}
}

// solveExitCode maps how the solve ended onto the CLI's documented exit
// codes. Timeout wins over cancellation when both are set: the deadline
// firing is what cancelled the run.
func solveExitCode(timedOut, cancelled bool) int {
	switch {
	case timedOut:
		return exitTimedOut
	case cancelled:
		return exitCancelled
	default:
		return exitOK
	}
}

// jsonResult is the -json output schema. Witnesses use -1 for "none"
// (graphs with no edges, or baseline algorithms that do not track a pair)
// so consumers need not know the NoVertex sentinel.
type jsonResult struct {
	Algorithm string `json:"algorithm"`
	Graph     string `json:"graph"`
	Diameter  int32  `json:"diameter"`
	// Upper is the best proven upper bound (== diameter unless the run
	// stopped early via -epsilon/-approx, in which case approximate is set
	// and the true diameter lies in [diameter, upper]).
	Upper         int32       `json:"upper"`
	Gap           int32       `json:"gap"`
	Approximate   bool        `json:"approximate"`
	Infinite      bool        `json:"infinite"`
	TimedOut      bool        `json:"timed_out"`
	Cancelled     bool        `json:"cancelled"`
	WitnessA      int64       `json:"witness_a"`
	WitnessB      int64       `json:"witness_b"`
	ElapsedNS     int64       `json:"elapsed_ns"`
	Stats         *core.Stats `json:"stats,omitempty"`          // fdiam only
	BFSTraversals int64       `json:"bfs_traversals,omitempty"` // baselines only
}

func writeJSON(out io.Writer, algo, graphPath string, diameter, upper int32, infinite, timedOut, cancelled, approximate bool,
	witnessA, witnessB uint32, elapsed time.Duration, st *core.Stats, baselineBFS int64) error {
	witness := func(v uint32) int64 {
		if v == graph.NoVertex {
			return -1
		}
		return int64(v)
	}
	enc := json.NewEncoder(out)
	return enc.Encode(jsonResult{
		Algorithm:     algo,
		Graph:         graphPath,
		Diameter:      diameter,
		Upper:         upper,
		Gap:           upper - diameter,
		Approximate:   approximate,
		Infinite:      infinite,
		TimedOut:      timedOut,
		Cancelled:     cancelled,
		WitnessA:      witness(witnessA),
		WitnessB:      witness(witnessB),
		ElapsedNS:     elapsed.Nanoseconds(),
		Stats:         st,
		BFSTraversals: baselineBFS,
	})
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func report(out io.Writer, diameter, upper int32, infinite, timedOut, cancelled, approximate bool, elapsed time.Duration) {
	switch {
	case timedOut:
		fmt.Fprintf(out, "TIMEOUT after %s (best lower bound: %d)\n", elapsed.Round(time.Millisecond), diameter)
	case cancelled:
		fmt.Fprintf(out, "CANCELLED after %s (best lower bound: %d)\n", elapsed.Round(time.Millisecond), diameter)
	case approximate:
		fmt.Fprintf(out, "diameter: in [%d, %d] (approximate, gap %d)  [%s]\n",
			diameter, upper, upper-diameter, elapsed.Round(time.Microsecond))
	case infinite:
		fmt.Fprintf(out, "diameter: infinite (disconnected); largest CC eccentricity: %d  [%s]\n",
			diameter, elapsed.Round(time.Microsecond))
	default:
		fmt.Fprintf(out, "diameter: %d  [%s]\n", diameter, elapsed.Round(time.Microsecond))
	}
}
