package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fdiam/internal/bfs"
	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// parallelPasses is how many untraced Workers = GOMAXPROCS passes the
// traced run makes for par.speedup and the parallel count spread.
const parallelPasses = 3

// probeSources is how many seeded random sources the BFS probe adds to the
// maximum-degree vertex of each graph.
const probeSources = 3

// processCounters reads the program's public process-wide instruments the
// traced run takes deltas of. Registration is idempotent, so asking the
// default registry by name returns the instruments internal/par and
// internal/bfs registered.
type processCounters struct {
	dispatches, spawns, waitNS, levels int64
}

func readCounters() processCounters {
	reg := obs.Default()
	return processCounters{
		dispatches: reg.Counter("fdiam_par_pool_dispatches_total", "").Value(),
		spawns:     reg.Counter("fdiam_par_spawn_fallbacks_total", "").Value(),
		waitNS:     reg.Histogram("fdiam_par_dispatch_wait_seconds", "", obs.HistogramOpts{}).Sum(),
		levels:     reg.Histogram("fdiam_bfs_level_seconds", "", obs.HistogramOpts{}).Count(),
	}
}

// traceLayers measures the core, bfs, par and graph layers on one input
// set: a serial pass for counts that repeat exactly, untraced parallel
// passes for the stage split, speed-up and count spread, one traced pass
// with the program's histograms armed, then timed BFS and CSR-build calls.
func traceLayers(ctx context.Context, cfg *config, set []*instance, rep *report, tr *tracer) {
	workers := runtime.GOMAXPROCS(0)

	serial := solvePass(ctx, set, 1, nil, -1, 0)
	checkPass(rep, serial)
	var cnt core.Stats
	for _, s := range serial {
		st := s.res.Stats
		cnt.EccBFS += st.EccBFS
		cnt.WinnowCalls += st.WinnowCalls
		cnt.EliminateCalls += st.EliminateCalls
		cnt.EliminateVisited += st.EliminateVisited
		cnt.BoundImprovements += st.BoundImprovements
		cnt.MSBFSBatches += st.MSBFSBatches
		cnt.MSBFSSources += st.MSBFSSources
		cnt.MSBFSDiscarded += st.MSBFSDiscarded
	}
	rep.add("core.ecc_bfs", float64(cnt.EccBFS), "count", "Workers=1 pass")
	rep.add("core.winnow_calls", float64(cnt.WinnowCalls), "count", "Workers=1 pass")
	rep.add("core.eliminate_calls", float64(cnt.EliminateCalls), "count", "Workers=1 pass")
	rep.add("core.eliminate_visited", float64(cnt.EliminateVisited), "count", "Workers=1 pass")
	rep.add("core.bound_improvements", float64(cnt.BoundImprovements), "count", "Workers=1 pass")
	rep.add("core.msbfs_batches", float64(cnt.MSBFSBatches), "count", "Workers=1 pass")
	rep.add("core.msbfs_sources", float64(cnt.MSBFSSources), "count", "Workers=1 pass")
	useful := 0.0
	if cnt.MSBFSSources > 0 {
		useful = float64(cnt.MSBFSSources-cnt.MSBFSDiscarded) / float64(cnt.MSBFSSources)
	}
	rep.add("core.msbfs_useful_ratio", useful, "ratio",
		fmt.Sprintf("(sources-discarded)/sources, base %d sources", cnt.MSBFSSources))

	// Untraced parallel passes: stage split, speed-up, count spread, and
	// each graph's solve time for bfs.share.
	var passSecsG []float64
	var stage [6]float64
	solveMS := make([]float64, len(set))
	eccMin, eccMax := int64(-1), int64(0)
	for range parallelPasses {
		pass := solvePass(ctx, set, workers, nil, -1, 0)
		checkPass(rep, pass)
		passSecsG = append(passSecsG, passSecs(pass))
		var ecc int64
		for i, s := range pass {
			st := s.res.Stats
			ecc += st.EccBFS
			solveMS[i] += 1e3 * s.secs / parallelPasses
			for j, d := range []time.Duration{st.TimeInit, st.TimeEcc, st.TimeWinnow,
				st.TimeChain, st.TimeEliminate, st.TimeOther()} {
				stage[j] += float64(d.Nanoseconds()) / 1e6 / parallelPasses
			}
		}
		if eccMin < 0 || ecc < eccMin {
			eccMin = ecc
		}
		eccMax = max(eccMax, ecc)
	}
	note := fmt.Sprintf("Workers=%d, mean of %d passes", workers, parallelPasses)
	for j, n := range []string{"init", "ecc", "winnow", "chain", "eliminate", "other"} {
		rep.add("core."+n+"_ms", stage[j], "ms", note)
	}
	spread := fmt.Sprintf("Workers=%d over %d passes", workers, parallelPasses)
	rep.add("core.ecc_bfs.par_min", float64(eccMin), "count", spread)
	rep.add("core.ecc_bfs.par_max", float64(eccMax), "count", spread)
	untraced := median(passSecsG)
	rep.add("par.speedup", passSecs(serial)/untraced, "x",
		fmt.Sprintf("Workers=1 pass %.4gs / Workers=%d pass %.4gs", passSecs(serial), workers, untraced))

	// Traced pass: spans around every solve, program histograms armed.
	obs.Default().ArmHistograms(true)
	before := readCounters()
	root := tr.begin("bench.pass", -1, 0)
	traced := solvePass(ctx, set, workers, tr, root, 0)
	tr.end(root)
	after := readCounters()
	checkPass(rep, traced)
	rep.add("core.bfs_levels", float64(after.levels-before.levels), "count", "BFS levels in the traced pass")
	rep.add("par.dispatches", float64(after.dispatches-before.dispatches), "count", "traced pass")
	rep.add("par.spawn_fallbacks", float64(after.spawns-before.spawns), "count", "traced pass")
	rep.add("par.dispatch_wait_ms", float64(after.waitNS-before.waitNS)/1e6, "ms", "traced pass")
	rep.add("bench.trace_overhead", passSecs(traced)/untraced, "ratio",
		fmt.Sprintf("traced pass %.4gs / untraced pass %.4gs", passSecs(traced), untraced))

	probeBFS(cfg, set, serial, solveMS, rep, tr)
	buildCSR(set, rep, tr)
}

// probeBFS times bfs.Engine.Eccentricity from each graph's maximum-degree
// vertex and a few seeded sources, at Workers = GOMAXPROCS and at 1.
// bfs.share estimates the part of a solve spent in single-source
// eccentricity BFS: Σ serial ecc-BFS count, less the sources MS-BFS batches
// committed, × mean probe time / Σ solve time.
func probeBFS(cfg *config, set []*instance, serial []solved, solveMS []float64, rep *report, tr *tracer) {
	workers := runtime.GOMAXPROCS(0)
	var calls, levels, switches int64
	var msPar, msSerial, bfsMS, totalMS float64
	for i, in := range set {
		srcs := probeSourcesOf(cfg, in.g, i)
		var graphMS float64
		for _, w := range []int{workers, 1} {
			e := bfs.New(in.g, w)
			e.Eccentricity(srcs[0]) // first traversal sizes buffers and the pool
			root := tr.begin("bench.probe", -1, int64(i))
			for _, src := range srcs {
				sp := tr.begin("bfs.Engine.Eccentricity", root, int64(i))
				start := time.Now()
				ecc := e.Eccentricity(src)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6
				tr.end(sp)
				if w == 1 {
					msSerial += ms
					continue
				}
				msPar += ms
				graphMS += ms / float64(len(srcs))
				calls++
				levels += int64(ecc) + 1
				switches += e.LastTraversalSwitches()
			}
			tr.end(root)
			e.Close()
		}
		st := serial[i].res.Stats
		bfsMS += float64(st.EccBFS-(st.MSBFSSources-st.MSBFSDiscarded)) * graphMS
		totalMS += solveMS[i]
	}
	note := fmt.Sprintf("mean of %d calls", calls)
	rep.add("bfs.ecc_ms", msPar/float64(calls), "ms", note+fmt.Sprintf(", Workers=%d", workers))
	rep.add("bfs.ecc_ms.w1", msSerial/float64(calls), "ms", note+", Workers=1")
	rep.add("bfs.levels", float64(levels)/float64(calls), "count", note)
	rep.add("bfs.dir_switches", float64(switches)/float64(calls), "count", note)
	rep.add("bfs.share", bfsMS/totalMS, "ratio", "single-source serial ecc_bfs × bfs.ecc_ms / solve time")
}

// probeSourcesOf returns the maximum-degree vertex of g and probeSources
// seeded random non-isolated vertices.
func probeSourcesOf(cfg *config, g *graph.Graph, i int) []graph.Vertex {
	srcs := []graph.Vertex{g.MaxDegreeVertex()}
	r := gen.NewRNG(derive(cfg.seed, 0xb5, uint64(i)))
	for len(srcs) <= probeSources {
		v := graph.Vertex(r.Intn(g.NumVertices()))
		if g.Degree(v) > 0 {
			srcs = append(srcs, v)
		}
	}
	return srcs
}

// buildCSR times graph.FromEdges on every graph's edge list.
func buildCSR(set []*instance, rep *report, tr *tracer) {
	var ms, mib float64
	for i, in := range set {
		edges := make([]graph.Edge, 0, in.g.NumEdges())
		for v := range in.g.NumVertices() {
			for _, w := range in.g.Neighbors(graph.Vertex(v)) {
				if graph.Vertex(v) < w {
					edges = append(edges, graph.Edge{A: graph.Vertex(v), B: w})
				}
			}
		}
		sp := tr.begin("graph.FromEdges", -1, int64(i))
		start := time.Now()
		graph.FromEdges(in.g.NumVertices(), edges)
		ms += float64(time.Since(start).Nanoseconds()) / 1e6
		tr.end(sp)
		mib += csrMiB(in.g)
	}
	rep.add("graph.build_ms", ms, "ms", fmt.Sprintf("sum over %d graphs", len(set)))
	rep.add("graph.csr_mb", mib, "MiB", fmt.Sprintf("sum over %d graphs", len(set)))
}
