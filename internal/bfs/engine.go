package bfs

import (
	"sync/atomic"
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
	"fdiam/internal/par"
)

// Default α/β for the adaptive direction heuristic (see run). Both
// deviate from Beamer's multicore tuning (α = 14, β = 24) deliberately:
// that α enters bottom-up far too eagerly when the bottom-up pass cannot
// spread its O(n) scan over cores, so α instead scales a serial cost model
// and is calibrated against per-level ground-truth timings of both kernels
// on power-law, grid and road topologies; β = 8 returns top-down at larger
// frontiers than Beamer's 24, which measures fastest across the stand-in
// catalog now that a missed exit still costs a (cheap) candidate-list scan
// rather than a full O(n) pass.
const (
	DefaultAlpha = 2
	DefaultBeta  = 8
)

// Engine executes breadth-first traversals over one graph with reusable
// buffers. An Engine is not safe for concurrent use: F-Diam issues one
// traversal at a time and parallelizes *inside* each traversal, which the
// paper found superior to running multiple BFS concurrently (§4.6).
type Engine struct {
	g *graph.Graph
	// marks is held by value: the bottom-up kernels read cnt/epoch through
	// the receiver on every edge probe, and a pointer field would add a
	// second dependent load to each of those probes. The serial top-down
	// kernel takes cnt and epoch as arguments instead.
	marks Marks

	workers int

	// alpha and beta drive the Beamer-style adaptive direction switch:
	// go bottom-up when the modeled bottom-up cost undercuts alpha times
	// the frontier's outgoing arcs (the top-down cost — see run for the
	// model), return top-down when the frontier shrinks below n/beta
	// vertices.
	alpha, beta int
	// serialCutoff is the item count below which a pass that could run
	// under par.ForWorker runs inline instead (parallelPass): the
	// bottom-up scan over all n vertices, the −1 fill of Distances' dist
	// array, and the MS-BFS pull kernel. Small passes do not amortize the
	// goroutine spawn and join. Top-down levels always expand serially
	// (topDownSerial), and the passes that write one array at frontier-
	// indexed, i.e. random, positions (marking bottom-up joiners,
	// Distances' per-level writes, the MS-BFS frontier swap and resets)
	// run serially too.
	serialCutoff int

	wl1, wl2 []graph.Vertex
	// bufs are the per-worker output buffers of the parallel bottom-up
	// scan and the MS-BFS pull, concatenated after the barrier.
	bufs [][]graph.Vertex
	// catOffs holds per-worker destination offsets for the parallel
	// frontier concatenation.
	catOffs []int

	// buCands carries the still-unvisited vertices between consecutive
	// serial bottom-up levels, so only the first level of a bottom-up run
	// pays the O(n) scan; later levels scan just the shrinking remainder.
	buCands []graph.Vertex

	// dirOpt enables the direction-optimized hybrid for full traversals.
	dirOpt bool

	// ms holds the bit-parallel multi-source traversal state (msbfs.go):
	// one uint64 word per vertex for seen/frontier/next, the active vertex
	// lists, and the dirty list that lets consecutive batches reuse the
	// words without an O(n) clear. Lazily sized on the first
	// MultiSourceRun.
	ms msState

	// cancel, when non-nil, is polled once per completed level: a true
	// load aborts the traversal between levels. Level granularity keeps
	// the per-edge kernels free of any cancellation overhead while
	// bounding the overshoot past a deadline to one BFS level. aborted
	// records whether the most recent traversal was cut short, in which
	// case its return value is only a lower bound on the true level count
	// and Reached undercounts.
	cancel  *atomic.Bool
	aborted bool

	// barrier, when non-nil, runs once per completed level on the
	// traversal's own goroutine, right after the cancel poll. The solver
	// installs its checkpoint hook here so that even a single multi-minute
	// traversal hits a snapshot cadence; the callback must not start
	// another traversal on this engine.
	barrier func()

	// trace receives structured traversal/level events; nil (the default)
	// disables tracing at the cost of one pointer compare per level. The
	// per-level hook supersedes the bare DirSwitches counters below as
	// the observability channel for the α/β heuristic — the counters stay
	// for the cheap always-on Stats summary.
	trace *obs.Run

	// reached counts the vertices visited by the most recent traversal,
	// which lets F-Diam detect disconnected inputs without an extra pass.
	reached int64
	// switches counts direction switches (either way) across all
	// traversals; lastSwitches the most recent traversal's.
	switches     int64
	lastSwitches int64
}

// New creates an engine bound to g using the given worker count
// (values < 1 select par.DefaultWorkers()).
func New(g *graph.Graph, workers int) *Engine {
	if workers < 1 {
		workers = par.DefaultWorkers()
	}
	n := g.NumVertices()
	e := &Engine{
		g:            g,
		marks:        Marks{cnt: make([]uint32, n)},
		workers:      workers,
		alpha:        DefaultAlpha,
		beta:         DefaultBeta,
		serialCutoff: 1024,
		dirOpt:       true,
		wl1:          make([]graph.Vertex, 0, n),
		wl2:          make([]graph.Vertex, 0, n),
		bufs:         make([][]graph.Vertex, workers),
	}
	return e
}

// parForWorker runs a chunked parallel-for across the engine's workers.
// It runs once per BFS level from every parallel kernel. A dispatched call
// allocates the body closure, its job and workers-1 goroutines once per
// parallel level, amortized over the whole frontier.
//
//fdiam:hotpath
func (e *Engine) parForWorker(n, chunk int, body func(worker, lo, hi int)) {
	par.ForWorker(n, e.workers, chunk, body)
}

// Close is a no-op kept for callers that release an engine when done: the
// engine holds no goroutines or other resources beyond its memory, since
// every parallel step joins its workers before returning.
func (e *Engine) Close() {}

// Graph returns the graph the engine is bound to.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

// SetDirectionOptimized enables or disables the bottom-up hybrid for full
// traversals (enabled by default).
func (e *Engine) SetDirectionOptimized(on bool) { e.dirOpt = on }

// setAlphaBeta overrides the direction-switch parameters: the hybrid goes
// bottom-up when the modeled bottom-up cost is below alpha× the top-down
// cost (run documents the model), and returns top-down when the
// frontier has fewer than n/beta vertices. Values < 1 select the defaults
// (DefaultAlpha, DefaultBeta). Huge values of both — alpha beyond
// n·(m+1) — force bottom-up from the first level and keep it there, which
// tests use to exercise the bottom-up kernel on every topology.
func (e *Engine) setAlphaBeta(alpha, beta int) {
	if alpha < 1 {
		alpha = DefaultAlpha
	}
	if beta < 1 {
		beta = DefaultBeta
	}
	e.alpha, e.beta = alpha, beta
}

// SetTracer attaches an observability run to the engine: every traversal
// becomes a span and every completed level a duration event carrying the
// kernel chosen, frontier size, frontier arc count, and unvisited
// remainder. nil detaches (the default); the nil path is allocation-free.
func (e *Engine) SetTracer(r *obs.Run) { e.trace = r }

// SetCancel installs a cancellation flag shared with the caller: every
// traversal loads it once per level and aborts between levels once it
// reads true. nil (the default) removes the check entirely. The flag is
// load-only from the engine's side; the owner stores true to cancel (e.g.
// from a context.AfterFunc when a context is done).
func (e *Engine) SetCancel(flag *atomic.Bool) { e.cancel = flag }

// SetBarrier installs a callback invoked once per completed BFS level,
// between levels, on the goroutine running the traversal (so it may read
// any state the traversal's caller owns). nil (the default) removes it.
// Checkpointing uses this as its time-based cadence point inside long
// traversals.
func (e *Engine) SetBarrier(f func()) { e.barrier = f }

// Aborted reports whether the most recent traversal was cut short by the
// cancellation flag. An aborted traversal's level count is a valid lower
// bound on the true eccentricity/level count (levels completed so far),
// but must not be recorded as an exact value.
func (e *Engine) Aborted() bool { return e.aborted }

// setSerialCutoff overrides the item count below which the engine's
// parallel passes run inline (default 1024).
func (e *Engine) setSerialCutoff(c int) {
	if c < 0 {
		c = 0
	}
	e.serialCutoff = c
}

// parallelPass reports whether a pass over k items runs under
// par.ForWorker: only with more than one worker and at least
// serialCutoff items.
func (e *Engine) parallelPass(k int) bool {
	return e.workers > 1 && k >= e.serialCutoff
}

// Reached returns the number of vertices visited by the most recent
// traversal (including the seeds).
func (e *Engine) Reached() int64 { return e.reached }

// DirectionSwitches returns the cumulative number of direction switches
// (top-down→bottom-up and back) across all traversals.
func (e *Engine) DirectionSwitches() int64 { return e.switches }

// LastTraversalSwitches returns the direction-switch count of the most
// recent traversal.
func (e *Engine) LastTraversalSwitches() int64 { return e.lastSwitches }

// Eccentricity runs a full direction-optimized BFS from src and returns the
// number of levels minus one, i.e. the eccentricity of src within its
// connected component (Algorithm 2). The last non-empty frontier — the
// vertices maximally far from src — is available from LastFrontier
// afterwards, which the 2-sweep initialization uses to pick a peripheral
// vertex.
func (e *Engine) Eccentricity(src graph.Vertex) int32 {
	return e.run("ecc", []graph.Vertex{src}, -1, true, nil)
}

// LastFrontier returns the last non-empty frontier of the most recent
// traversal (for a full BFS: the vertices maximally far from the source;
// the paper's Algorithm 1 reads wl1[0] from it). The returned slice is
// reused by the next traversal; callers that keep it must copy.
func (e *Engine) LastFrontier() []graph.Vertex { return e.wl1 }

// Distances runs a full BFS from src and writes the hop distance of every
// reached vertex into dist, which must have length n. Unreached vertices
// (other components) are set to -1. Returns the eccentricity of src within
// its component. Used by the solver's 2-sweep and centre step, whose
// distance arrays Winnow and the survivor scan read, by a resumed solve to
// rebuild the start's distances, and by the bounding and iFUB baselines.
func (e *Engine) Distances(src graph.Vertex, dist []int32) int32 {
	if n := e.g.NumVertices(); e.parallelPass(n) {
		e.parForWorker(n, 0, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dist[i] = -1
			}
		})
	} else {
		for i := range dist {
			dist[i] = -1
		}
	}
	dist[src] = 0
	return e.run("dist", []graph.Vertex{src}, -1, true, func(level int32, frontier []graph.Vertex) {
		for _, v := range frontier {
			dist[v] = level
		}
	})
}

// Partial expands a (possibly multi-source) partial BFS: seeds are marked
// visited at level 0 and expansion proceeds top-down for at most maxLevels
// levels (maxLevels < 0 means unbounded). After each level, onLevel is
// invoked with the level number (starting at 1) and the newly visited
// frontier; the slice is reused, so callers must consume it immediately.
// Partial never leaves top-down, whose levels expand serially at every
// worker count: Eliminate's worklists are typically tiny (§4.4).
func (e *Engine) Partial(seeds []graph.Vertex, maxLevels int32,
	onLevel func(level int32, frontier []graph.Vertex)) int32 {
	return e.run("partial", seeds, maxLevels, false, onLevel)
}

// run is the single traversal core shared by every entry point. It
// returns the number of completed levels (the distance of the farthest
// vertex reached from the seed set). Top-down levels run topDownSerial
// at every worker count; only bottom-up levels (bottomUpStep) may run in
// parallel.
//
// Direction selection is Beamer-style — edge counts decide, α scales the
// entry, β the exit — but the entry condition is a serial cost model, not
// Beamer's mf > mu/α. A top-down step costs ~mf probes (the frontier's
// outgoing arcs). A bottom-up step costs ~n sequential mark checks plus,
// for each of the `unvisited` live vertices, adjacency probes until one
// hits the frontier — in expectation m/mf probes when the frontier's arcs
// are an even sample of all m. The hybrid therefore goes bottom-up when
//
//	α·mf > n + unvisited·m/mf
//
// i.e. when the modeled bottom-up cost undercuts α× the top-down cost;
// α (default 2) absorbs the model's pessimism — a bottom-up probe is a
// read-only bit test while a top-down probe checks, marks and appends. It
// returns top-down once the frontier drops below n/β vertices, where the
// O(n) scan stops paying. Per-level ground-truth timings of both kernels
// show the classic mu/α entry with Beamer's α = 14 mis-fires on one core:
// it ignores the probe-miss term and enters on hub levels where mf is
// still far below the unexplored arc count, which only a many-core
// bottom-up scan can absorb.
//
// Crucially the edge counts stay out of the per-edge hot loops: nf·maxDeg
// bounds mf from above and the entry condition is monotone in mf, so each
// level first evaluates it against that O(1) bound and computes the exact
// O(nf) arc sum only when the bound passes. Low-degree topologies (grids,
// road networks) never pass the gate and run the top-down loop at full
// speed; heavy-tailed ones pay the exact sum only on the few levels where
// switching is actually in play. An unvisited-vertex count terminates the
// traversal as soon as the component is exhausted, without a final empty
// expansion.
func (e *Engine) run(kind string, seeds []graph.Vertex, maxLevels int32, dirOpt bool,
	onLevel func(level int32, frontier []graph.Vertex)) int32 {
	tr := e.trace
	tr.TraversalStart(kind, len(seeds))
	e.marks.Next()
	e.lastSwitches = 0
	e.aborted = false
	n := e.g.NumVertices()
	e.wl1 = e.wl1[:0]
	for _, s := range seeds {
		if !e.marks.Visited(s) {
			e.marks.Visit(s)
			e.wl1 = append(e.wl1, s)
		}
	}
	e.reached = int64(len(e.wl1))
	unvisited := n - len(e.wl1)

	adaptive := dirOpt && e.dirOpt
	var maxDeg int64
	var marcs float64
	if adaptive && n > 0 {
		maxDeg = int64(e.g.MaxDegree())
		marcs = float64(e.g.NumArcs())
	}
	bottomUp := false
	// candsOK marks buCands as the exact unvisited set, which holds only
	// while serial bottom-up levels run back to back (any other step kind
	// visits vertices without maintaining the list).
	candsOK := false
	var level int32
	for len(e.wl1) > 0 && unvisited > 0 {
		if maxLevels >= 0 && level >= maxLevels {
			break
		}
		// One atomic load per level: abort between levels so every level
		// reported so far stays exact and the hot kernels carry no
		// cancellation overhead.
		if e.cancel != nil && e.cancel.Load() {
			e.aborted = true
			break
		}
		if e.barrier != nil {
			e.barrier()
		}
		nf := len(e.wl1)
		if adaptive {
			if !bottomUp {
				// Entering bottom-up with fewer than n/β unvisited
				// vertices is pointless: the next frontier could not
				// reach n/β either, so the β exit would fire
				// immediately.
				if unvisited > n/e.beta {
					alpha, fn := float64(e.alpha), float64(n)
					probes := float64(unvisited) * marcs
					if ub := float64(int64(nf) * maxDeg); alpha*ub > fn+probes/ub {
						if mf := float64(e.frontierArcs()); alpha*mf > fn+probes/mf {
							bottomUp = true
							e.lastSwitches++
							tr.DirSwitch(level+1, true)
						}
					}
				}
			} else if nf < n/e.beta {
				bottomUp = false
				e.lastSwitches++
				tr.DirSwitch(level+1, false)
			}
		}
		// Tracing pre-work stays off the nil path: the arc sum is O(nf)
		// and only the trace consumes it. The level histogram needs just
		// the clock, and only when armed.
		var lvlStart time.Time
		var lvlArcs int64
		if tr != nil || hLevelSeconds.Armed() {
			lvlStart = time.Now()
		}
		if tr != nil {
			lvlArcs = e.frontierArcs()
		}
		step := obs.StepTopDownSerial
		e.wl2 = e.wl2[:0]
		if bottomUp {
			step = e.bottomUpStep(candsOK)
		} else {
			e.wl2 = topDownSerial(e.g.Offsets(), e.g.Targets(), e.marks.cnt, e.marks.epoch, e.wl1, e.wl2)
		}
		candsOK = step == obs.StepBottomUpSerial
		if len(e.wl2) == 0 {
			break
		}
		level++
		e.reached += int64(len(e.wl2))
		unvisited -= len(e.wl2)
		if onLevel != nil {
			onLevel(level, e.wl2)
		}
		hLevelSeconds.ObserveSince(lvlStart)
		tr.LevelDone(level, step, len(e.wl2), lvlArcs, unvisited, lvlStart)
		// After the swap wl1 always holds the deepest non-empty frontier,
		// so LastFrontier needs no copy.
		e.wl1, e.wl2 = e.wl2, e.wl1
	}
	e.switches += e.lastSwitches
	tr.TraversalEnd(level, e.reached, e.lastSwitches)
	return level
}

// frontierArcs sums the outgoing-arc counts of the current frontier. Only
// called on levels where the nf·maxDeg gate says a direction switch is
// possible, so its O(nf) cost never touches the common top-down path.
//
//fdiam:hotpath
func (e *Engine) frontierArcs() int64 {
	offsets := e.g.Offsets()
	var mf int64
	for _, v := range e.wl1 {
		mf += offsets[v+1] - offsets[v]
	}
	return mf
}

// topDownSerial expands the frontier in into out, overwriting out from
// index 0, without atomics and without a data-dependent branch per arc:
// every arc loads its target's mark, stores the epoch back
// unconditionally, stores the target at out[k] unconditionally, and
// advances k only when the old mark was stale, which the compiler turns
// into a conditional move (CMOVQNE) rather than a jump. The next arc
// overwrites a visited target's slot, so out holds exactly the
// first-discovery order that branching on the mark would give. This is
// Green, Dukhan & Vuduc's branch-avoiding BFS ("Branch-Avoiding Graph
// Algorithms", SPAA 2015).
//
// The removed branch is a coin flip on road networks, whose degree-2
// shape points have one visited and one fresh neighbour in random order:
// there a traversal runs 1.4–1.7× faster than with the branch. On grids
// the branch predicts well, and the extra stores per arc cost 10–25 %
// (DESIGN.md §6, "Branch-free serial top-down", has the per-row table).
//
// The form was chosen from the generated code and per-traversal timings:
// a free function over slices beat the receiver form (e.marks and e.wl2
// read through e) by 5–15 % on grids, a conditional move beat SETNE by
// about 5 %, and inlining into run, whose many live values crowd the
// registers, cost 15–40 % on every high-diameter input; hence noinline.
//
//go:noinline
//fdiam:hotpath
func topDownSerial(offsets []int64, targets []graph.Vertex, cnt []uint32, epoch uint32,
	in, out []graph.Vertex) []graph.Vertex {
	buf := out[:cap(out)]
	k := 0
	for _, v := range in {
		for _, w := range targets[offsets[v]:offsets[v+1]] {
			old := cnt[w]
			cnt[w] = epoch
			// The unconditional store needs k < cap(out). Both frontier
			// buffers hold n = |V| vertices; k counts the vertices
			// first discovered this level, at most the n − reached
			// still unvisited; and reached ≥ 1, because a level
			// expands only a non-empty frontier of visited vertices.
			// So k ≤ n − 1 at every store.
			buf[k] = w
			if old != epoch {
				k++
			}
		}
	}
	return buf[:k]
}

// bottomUpStep implements the topology-driven pass of Algorithm 2: every
// unvisited vertex scans its adjacency list for a neighbor in the current
// frontier. Both kernels probe the visited marks instead of a frontier set
// and defer marking their joiners to one pass here, after the scan;
// bottomUpSerial explains why that probe is exact. reuseCands is true when
// the previous level also ran the serial bottom-up step, in which case its
// leftover unvisited list replaces the O(n) scan. It picks the kernel and
// returns the one it ran, which run uses as the level's label.
func (e *Engine) bottomUpStep(reuseCands bool) obs.Step {
	step := obs.StepBottomUpSerial
	if e.parallelPass(e.g.NumVertices()) {
		e.bottomUpParallel()
		step = obs.StepBottomUpParallel
	} else {
		e.bottomUpSerial(reuseCands)
	}
	cnt, epoch := e.marks.cnt, e.marks.epoch
	for _, v := range e.wl2 {
		cnt[v] = epoch
	}
	return step
}

// bottomUpSerial probes the visited marks directly instead of building a
// frontier set: under level synchrony an unvisited vertex has no neighbor
// closer than the current level, so any *visited* neighbor is necessarily
// *in the current frontier* — the two membership tests accept exactly the
// same probes. That makes the frontier structure redundant; what remains is
// keeping the scan's view of "visited" frozen at the current level, so
// joiners are only recorded in wl2, and bottomUpStep marks them after the
// scan. Measured on the soc stand-in's two bottom-up levels this is
// 1.3–1.5× faster than probing a frontier bitset built per level.
// The step also maintains buCands: the unvisited vertices that did NOT
// join this level, i.e. exactly the candidates the next bottom-up level
// must scan. The first level of a bottom-up run builds it from the O(n)
// scan it pays anyway; each following level then iterates the shrinking
// remainder instead of all of n, which on the soc/kron stand-ins cuts the
// second bottom-up level's scan by 4–10×.
//
//fdiam:hotpath
func (e *Engine) bottomUpSerial(reuseCands bool) {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	if reuseCands {
		kept := e.buCands[:0]
		for _, v := range e.buCands {
			adj := targets[offsets[v]:offsets[v+1]]
			joined := false
			for _, nb := range adj {
				if e.marks.cnt[nb] == e.marks.epoch {
					joined = true
					break
				}
			}
			if joined {
				e.wl2 = append(e.wl2, v)
			} else {
				kept = append(kept, v)
			}
		}
		e.buCands = kept
	} else {
		n := e.g.NumVertices()
		kept := e.buCands[:0]
		for v := 0; v < n; v++ {
			if e.marks.cnt[v] == e.marks.epoch {
				continue
			}
			adj := targets[offsets[v]:offsets[v+1]]
			joined := false
			for _, nb := range adj {
				if e.marks.cnt[nb] == e.marks.epoch {
					joined = true
					break
				}
			}
			if joined {
				e.wl2 = append(e.wl2, graph.Vertex(v))
			} else {
				kept = append(kept, graph.Vertex(v))
			}
		}
		e.buCands = kept
	}
}

// bottomUpParallel is bottomUpSerial's O(n) scan split into vertex ranges
// across the workers. The workers only read the visited marks, so the
// deferred-marking probe holds unchanged and needs no atomics; each worker
// appends its range's joiners to its own buffer, and the buffers are
// concatenated into wl2 after the join for bottomUpStep to mark. It keeps
// no candidate list.
//
//fdiam:hotpath
func (e *Engine) bottomUpParallel() {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	n := e.g.NumVertices()
	for w := 0; w < e.workers; w++ {
		e.bufs[w] = e.bufs[w][:0]
	}
	cnt, epoch := e.marks.cnt, e.marks.epoch
	e.parForWorker(n, 2048, func(worker, lo, hi int) {
		buf := e.bufs[worker]
		for v := lo; v < hi; v++ {
			if cnt[v] == epoch {
				continue
			}
			adj := targets[offsets[v]:offsets[v+1]]
			for _, nb := range adj {
				if cnt[nb] == epoch {
					buf = append(buf, graph.Vertex(v))
					break
				}
			}
		}
		e.bufs[worker] = buf
	})
	e.wl2 = e.concatInto(e.wl2)
}

// concatInto appends the per-worker output buffers to dst (which the caller
// has reset to length 0) and returns the grown slice: the parallel
// bottom-up scan's next frontier and the MS-BFS pull's next active list.
// Large outputs are concatenated in parallel: each worker copies its
// buffer into a precomputed slot, so the post-barrier merge is not a
// serial O(frontier) append chain.
//
//fdiam:hotpath
func (e *Engine) concatInto(dst []graph.Vertex) []graph.Vertex {
	workers := e.workers
	total := 0
	for w := 0; w < workers; w++ {
		total += len(e.bufs[w])
	}
	if total == 0 {
		return dst
	}
	if workers > 1 && total >= 1<<15 {
		if cap(e.catOffs) < workers+1 {
			//fdiamlint:ignore hotalloc grow-once offset table, reused across levels once capacity suffices
			e.catOffs = make([]int, workers+1)
		}
		offs := e.catOffs[:workers+1]
		offs[0] = 0
		for w := 0; w < workers; w++ {
			offs[w+1] = offs[w] + len(e.bufs[w])
		}
		if cap(dst) < total {
			//fdiamlint:ignore hotalloc grow-once frontier buffer, reused across levels once capacity suffices
			dst = make([]graph.Vertex, total)
		}
		dst = dst[:total]
		e.parForWorker(workers, 1, func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				copy(dst[offs[w]:offs[w+1]], e.bufs[w])
			}
		})
		return dst
	}
	for w := 0; w < workers; w++ {
		dst = append(dst, e.bufs[w]...)
	}
	return dst
}
