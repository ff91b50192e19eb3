package bfs

import (
	"sync/atomic"
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
	"fdiam/internal/par"
)

// Default α/β for the adaptive direction heuristic (see runWith). Both
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
	// marks is held by value: the traversal kernels read cnt/epoch through
	// the receiver on every edge probe, and a pointer field would add a
	// second dependent load to each of those probes.
	marks Marks

	workers int

	// alpha and beta drive the Beamer-style adaptive direction switch:
	// go bottom-up when the modeled bottom-up cost undercuts alpha times
	// the frontier's outgoing arcs (the top-down cost — see runWith for
	// the model), return top-down when the frontier shrinks below n/beta
	// vertices.
	alpha, beta int
	// serialCutoff is the frontier size below which even "parallel"
	// traversals expand serially; tiny frontiers do not amortize the
	// goroutine spawn and join (the paper makes the same call for
	// Eliminate).
	serialCutoff int

	wl1, wl2 []graph.Vertex
	bufs     [][]graph.Vertex
	// catOffs holds per-worker destination offsets for the parallel
	// frontier concatenation.
	catOffs []int

	// front is the current-frontier bitset (bit v of word v/64) for
	// parallel bottom-up steps, allocated on the first direction switch.
	front []uint64
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

// parForWorker runs a chunked parallel-for for the engine's kernels. It
// runs once per BFS level from every parallel kernel, so it is hot-path
// audited itself rather than tainting each caller's deepalloc summary.
//
//fdiam:hotpath
func (e *Engine) parForWorker(n, workers, chunk int, body func(worker, lo, hi int)) {
	//fdiamlint:ignore deepalloc a dispatched call allocates the body closure, its job and WaitGroup, and workers-1 goroutines once per parallel level, amortized over the whole frontier
	par.ForWorker(n, workers, chunk, body)
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
// cost (runWith documents the model), and returns top-down when the
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

// setSerialCutoff overrides the frontier size below which parallel
// traversals expand serially (default 1024).
func (e *Engine) setSerialCutoff(c int) {
	if c < 0 {
		c = 0
	}
	e.serialCutoff = c
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
// its component. Used by the Graph-Diameter-style bounding baseline and by
// iFUB's fringe construction.
func (e *Engine) Distances(src graph.Vertex, dist []int32) int32 {
	n := e.g.NumVertices()
	e.parForWorker(n, e.workers, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dist[i] = -1
		}
	})
	dist[src] = 0
	return e.run("dist", []graph.Vertex{src}, -1, true, func(level int32, frontier []graph.Vertex) {
		if len(frontier) >= e.serialCutoff && e.workers > 1 {
			e.parForWorker(len(frontier), e.workers, 0, func(_, lo, hi int) {
				for _, v := range frontier[lo:hi] {
					dist[v] = level
				}
			})
			return
		}
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
// Expansion is serial whatever the engine's worker count: Eliminate's
// worklists are typically tiny (§4.4).
func (e *Engine) Partial(seeds []graph.Vertex, maxLevels int32,
	onLevel func(level int32, frontier []graph.Vertex)) int32 {
	return e.runWith("partial", seeds, maxLevels, false, 1, onLevel)
}

// run executes the traversal with the engine's configured worker count.
func (e *Engine) run(kind string, seeds []graph.Vertex, maxLevels int32, dirOpt bool,
	onLevel func(level int32, frontier []graph.Vertex)) int32 {
	return e.runWith(kind, seeds, maxLevels, dirOpt, e.workers, onLevel)
}

// runWith is the single traversal core shared by every entry point. It
// returns the number of completed levels (the distance of the farthest
// vertex reached from the seed set).
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
func (e *Engine) runWith(kind string, seeds []graph.Vertex, maxLevels int32, dirOpt bool, workers int,
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
		var step obs.Step
		e.wl2 = e.wl2[:0]
		switch {
		case bottomUp:
			if workers > 1 && n >= e.serialCutoff {
				step = obs.StepBottomUpParallel
			} else {
				step = obs.StepBottomUpSerial
			}
			candsOK = e.bottomUpStep(workers, candsOK)
		case workers > 1 && nf >= e.serialCutoff:
			step = obs.StepTopDownParallel
			e.topDownParallel(workers)
			candsOK = false
		default:
			step = obs.StepTopDownSerial
			e.topDownSerial()
			candsOK = false
		}
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

// topDownSerial expands wl1 into wl2 without atomics. The mark reads go
// through the receiver on purpose: e.marks is a value field, so each probe
// is a single L1-resident load off e, which costs less than the stack
// spills that keeping cnt/epoch/out live across the append would force.
// For the same reason it stays out of line: inlined into runWith, whose
// many live values crowd the registers, a serial eccentricity BFS of a
// 400×400 road stand-in ran about 15 % slower (2-core x86-64 VM).
//
//go:noinline
//fdiam:hotpath
func (e *Engine) topDownSerial() {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	for _, v := range e.wl1 {
		adj := targets[offsets[v]:offsets[v+1]]
		for _, n := range adj {
			if e.marks.cnt[n] != e.marks.epoch {
				e.marks.cnt[n] = e.marks.epoch
				e.wl2 = append(e.wl2, n)
			}
		}
	}
}

// topDownParallel expands wl1 into wl2 using CAS claims and per-worker
// output buffers that are concatenated after the barrier, which avoids a
// contended shared append (the OpenMP code's atomic worklist insert).
//
//fdiam:hotpath
func (e *Engine) topDownParallel(workers int) {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	for w := 0; w < workers; w++ {
		e.bufs[w] = e.bufs[w][:0]
	}
	marks := &e.marks
	e.parForWorker(len(e.wl1), workers, 64, func(worker, lo, hi int) {
		buf := e.bufs[worker]
		for _, v := range e.wl1[lo:hi] {
			adj := targets[offsets[v]:offsets[v+1]]
			for _, n := range adj {
				if marks.VisitedAtomic(n) {
					continue
				}
				if marks.TryVisit(n) {
					buf = append(buf, n)
				}
			}
		}
		e.bufs[worker] = buf
	})
	e.concatFrontier(workers)
}

// bottomUpStep implements the topology-driven pass of Algorithm 2: every
// unvisited vertex scans its adjacency list for a neighbor in the current
// frontier. The serial and parallel variants test frontier membership
// differently; bottomUpSerial explains the trick that makes the serial
// probe free. reuseCands is true when the previous level also ran the
// serial bottom-up step, in which case its leftover unvisited list replaces
// the O(n) scan.
func (e *Engine) bottomUpStep(workers int, reuseCands bool) bool {
	if workers > 1 && e.g.NumVertices() >= e.serialCutoff {
		e.bottomUpParallel(workers)
		return false
	}
	e.bottomUpSerial(reuseCands)
	return true
}

// bottomUpSerial probes the visited marks directly instead of building a
// frontier set: under level synchrony an unvisited vertex has no neighbor
// closer than the current level, so any *visited* neighbor is necessarily
// *in the current frontier* — the two membership tests accept exactly the
// same probes. That makes the frontier structure redundant; what remains is
// keeping the scan's view of "visited" frozen at the current level, so
// joiners are recorded in wl2 and marked in a deferred pass after the scan
// (in ascending vertex order, i.e. sequential writes). This is the seed
// revision's scheme, kept serially because it beats a bitset frontier by
// the full cost of building one per level; measured on the soc stand-in's
// two bottom-up levels it is 1.3–1.5× faster than the bitset variant.
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
	for _, v := range e.wl2 {
		e.marks.cnt[v] = e.marks.epoch
	}
}

// bottomUpParallel cannot use the deferred-marking trick: workers mark
// their own range's joiners immediately (no atomics needed — each vertex
// is touched only by its range owner), so a concurrently marked level-L+1
// vertex would contaminate a plain visited probe. Frontier membership is
// therefore tested against a dedicated bitset snapshot of wl1, which is
// also what keeps the probe's working set dense (n/8 bytes) when the scan
// is spread over cores.
//
//fdiam:hotpath
func (e *Engine) bottomUpParallel(workers int) {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	n := e.g.NumVertices()
	if words := (n + 63) / 64; len(e.front) < words {
		//fdiamlint:ignore hotalloc grow-once frontier bitset, allocated on first use and reused for the engine's lifetime
		e.front = make([]uint64, words)
	}
	front := e.front
	clear(front)
	if workers > 1 && len(e.wl1) >= e.serialCutoff {
		// Frontier vertices of one range may share a word with another
		// range's, so concurrent setters need the atomic OR.
		e.parForWorker(len(e.wl1), workers, 0, func(_, lo, hi int) {
			for _, v := range e.wl1[lo:hi] {
				atomic.OrUint64(&front[v>>6], 1<<(v&63))
			}
		})
	} else {
		for _, v := range e.wl1 {
			front[v>>6] |= 1 << (v & 63)
		}
	}
	for w := 0; w < workers; w++ {
		e.bufs[w] = e.bufs[w][:0]
	}
	cnt, epoch := e.marks.cnt, e.marks.epoch
	e.parForWorker(n, workers, 2048, func(worker, lo, hi int) {
		buf := e.bufs[worker]
		for v := lo; v < hi; v++ {
			if cnt[v] == epoch {
				continue
			}
			adj := targets[offsets[v]:offsets[v+1]]
			for _, nb := range adj {
				if front[nb>>6]&(1<<(nb&63)) != 0 {
					cnt[v] = epoch
					buf = append(buf, graph.Vertex(v))
					break
				}
			}
		}
		e.bufs[worker] = buf
	})
	e.concatFrontier(workers)
}

// concatFrontier folds the per-worker output buffers into wl2. Large
// frontiers are concatenated in parallel: each worker copies its buffer
// into a precomputed slot, so the post-barrier merge is no longer a serial
// O(frontier) append chain.
//
//fdiam:hotpath
func (e *Engine) concatFrontier(workers int) {
	e.wl2 = e.concatInto(e.wl2, workers)
}

// concatInto appends the per-worker output buffers to dst (which the caller
// has reset to length 0) and returns the grown slice. Shared by the
// single-source frontier swap and the multi-source active-list rebuild.
//
//fdiam:hotpath
func (e *Engine) concatInto(dst []graph.Vertex, workers int) []graph.Vertex {
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
		e.parForWorker(workers, workers, 1, func(_, lo, hi int) {
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
