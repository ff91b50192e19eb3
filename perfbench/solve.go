package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/graph"
)

// instanceSets is how many times a solve run sets up its inputs. Each
// set-up generates the stand-ins from its own derived seeds; setup_s is the
// median over set-ups and the timed passes rotate over the sets, so one
// unlucky random structure does not decide a run.
const instanceSets = 3

// solveTimeout fails a solve that runs away instead of hanging the run.
const solveTimeout = 60 * time.Second

// rssPasses is the fixed number of timed passes peak_rss_mb covers. A
// fixed count, not the --seconds window, keeps a faster solver from
// reading worse while memory grows with the number of solves.
const rssPasses = 2 * instanceSets

// buildSet generates input set k and returns it with the generation time,
// which covers the generators' CSR builds.
func buildSet(cfg *config, inputs []standIn, k int) ([]*graph.Graph, time.Duration) {
	start := time.Now()
	gs := make([]*graph.Graph, len(inputs))
	for i, s := range inputs {
		gs[i] = s.build(derive(cfg.seed, uint64(i), uint64(k)))
	}
	return gs, time.Since(start)
}

// referenceSet attaches reference answers to a generated set, outside any
// timed window.
func referenceSet(cfg *config, inputs []standIn, gs []*graph.Graph, ref oracle) ([]*instance, error) {
	out := make([]*instance, len(gs))
	for i, g := range gs {
		in, err := newInstance(inputs[i], g, ref, cfg.refOffset)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// solved is one library solve with its wall time.
type solved struct {
	in   *instance
	res  core.Result
	secs float64
}

// solvePass solves every instance of set once through core.DiameterCtx.
// With a tracer, each solve is a core span under parent.
func solvePass(ctx context.Context, set []*instance, workers int, tr *tracer, parent int32, op int64) []solved {
	out := make([]solved, len(set))
	for i, in := range set {
		sctx, cancel := context.WithTimeout(ctx, solveTimeout)
		sp := int32(-1)
		if tr != nil {
			sp = tr.begin("core.DiameterCtx", parent, op)
		}
		start := time.Now()
		res := core.DiameterCtx(sctx, in.g, core.Options{Workers: workers})
		secs := time.Since(start).Seconds()
		if tr != nil {
			tr.end(sp)
		}
		cancel()
		out[i] = solved{in, res, secs}
	}
	return out
}

// checkPass checks every answer of a pass against its reference.
func checkPass(rep *report, pass []solved) {
	for _, s := range pass {
		r := s.res
		rep.tally(s.in.check(answer{diameter: r.Diameter, upper: r.Upper, exact: true,
			infinite: r.Infinite, haveInfinite: true, witnessA: r.WitnessA, witnessB: r.WitnessB,
			cancelled: r.Cancelled}))
	}
}

func passSecs(pass []solved) float64 {
	t := 0.0
	for _, s := range pass {
		t += s.secs
	}
	return t
}

// runSolve is the untimed set-up and timed loop of a solve-* workload:
// whole passes at Workers = GOMAXPROCS, rotating over the input sets,
// until --seconds of solve time and enough solves for the workload's tail
// percentile.
//
// Every figure is built from medians per input set or instance, as the sets'
// random structures differ by more than the run-to-run noise: a median
// over passes of different sets would jump between them. solve_vps and
// ops_per_s divide one set's vertices or solves by its median pass time,
// summed over the sets. peak_rss_mb is VmHWM over the first rssPasses
// timed passes, reset after set-up. latency_ms.p50 is the geometric mean
// of every instance's median solve time; a pooled median over inputs of
// very different sizes would land on whichever input sits in the middle.
func runSolve(ctx context.Context, cfg *config, w *workload, rep *report, man *manifest) error {
	var sets [][]*instance
	var setup []float64
	for k := range instanceSets {
		gs, d := buildSet(cfg, w.inputs, k)
		setup = append(setup, d.Seconds())
		set, err := referenceSet(cfg, w.inputs, gs, w.ref)
		if err != nil {
			return err
		}
		man.addGraphs(k, set)
		sets = append(sets, set)
	}
	rep.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups", len(setup)))

	workers := runtime.GOMAXPROCS(0)
	checkPass(rep, solvePass(ctx, sets[0], workers, nil, -1, 0)) // warm-up
	rep.add("peak_rss_mb.setup", peakRSSMiB(), "MiB", "set-up and warm-up")
	reset := resetPeakRSS()
	var lat, passes []float64
	setPasses := make([][]float64, len(sets))
	instLat := make([][]float64, len(sets)*len(w.inputs))
	solveSecs := 0.0
	need := minSamples(w.tailPct)
	start := time.Now()
	for p := 0; solveSecs < cfg.seconds || len(lat) < need || p < rssPasses; p++ {
		if time.Since(start) > maxMeasure {
			break
		}
		k := p % len(sets)
		pass := solvePass(ctx, sets[k], workers, nil, -1, 0)
		for i, s := range pass {
			lat = append(lat, 1e3*s.secs)
			instLat[k*len(w.inputs)+i] = append(instLat[k*len(w.inputs)+i], 1e3*s.secs)
		}
		t := passSecs(pass)
		passes = append(passes, t)
		setPasses[k] = append(setPasses[k], t)
		solveSecs += t
		checkPass(rep, pass)
		if len(passes) == rssPasses {
			rep.add("peak_rss_mb", peakRSSMiB(), "MiB",
				resetNote(reset, fmt.Sprintf("read after %d timed passes", rssPasses)))
		}
	}
	if len(passes) < rssPasses { // maxMeasure cut the loop
		rep.add("peak_rss_mb", peakRSSMiB(), "MiB",
			resetNote(reset, fmt.Sprintf("read after only %d timed passes", len(passes))))
	}
	var vertices, solves int
	var medPass float64
	for k, set := range sets {
		if len(setPasses[k]) == 0 {
			continue // maxMeasure cut the loop before this set's first pass
		}
		for _, in := range set {
			vertices += in.g.NumVertices()
		}
		solves += len(set)
		medPass += median(setPasses[k])
	}
	var instMed []float64
	for _, xs := range instLat {
		if len(xs) > 0 {
			instMed = append(instMed, median(xs))
		}
	}
	note := fmt.Sprintf("over each set's median pass, %d passes", len(passes))
	rep.add("peak_rss_mb.end", peakRSSMiB(), "MiB", "after the timed loop")
	rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio",
		fmt.Sprintf("%d of %d solves", rep.failed, rep.attempted))
	rep.add("solve_vps", float64(vertices)/medPass, "vertices/s", note)
	rep.add("ops_per_s", float64(solves)/medPass, "1/s", "solves per second "+note)
	rep.add("latency_ms.p50", geomean(instMed), "ms",
		fmt.Sprintf("geometric mean of %d instances' median solve times", len(instMed)))
	rep.addTail("latency_ms", lat, w.tailPct, "ms")
	rep.add("pass_s.p50", median(passes), "s", fmt.Sprintf("n=%d", len(passes)))
	rep.addTail("pass_s", passes, 0, "s")
	return nil
}
