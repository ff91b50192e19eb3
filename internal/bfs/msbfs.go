package bfs

import (
	"math/bits"
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// This file implements the engine's bit-parallel multi-source BFS (MS-BFS):
// up to 64 sources per batch, one bit per source per vertex, so one edge
// pass advances 64 traversals at once. This is the computational core of
// vertex-centric "compute every eccentricity simultaneously" schemes like
// Pennycuff & Weninger's (discussed in the paper's related work). On its
// own it is Θ(n·m/64) work and loses to F-Diam's work avoidance — but as a
// batch engine for the survivors of Winnow/Eliminate it amortizes one
// shared traversal over up to 64 of the solver's exact evaluations.
//
// Two kernels expand a level, mirroring the single-source engine's
// direction optimization (Then et al., "The More the Merrier", PVLDB 2014,
// show that bit-parallel BFS direction-optimizes like the scalar one):
//
//   - push: scatter the active list's frontier words along its out-edges.
//     Cost ≈ the active list's outgoing arcs, each a random
//     read-modify-write plus appends; serial, so no atomics.
//   - pull: every vertex gathers its neighbors' frontier words. A vertex
//     whose seen word already holds every live lane is skipped, and a
//     gather stops as soon as no live lane is missing: the bit-parallel
//     analogue of bottom-up early exit. Cost ≤ (n + m)/workers of mostly
//     sequential reads; runs inline at Workers = 1 and across the worker
//     team otherwise, race-free because vertex v's words are written only
//     by v's range owner.
//
// A per-level cost model picks the cheaper one (see msPushCost). All
// per-vertex words are engine-owned and reused across batches: a dirty
// list of first-touched vertices makes the inter-batch reset O(touched)
// instead of O(n), and the per-worker reduction buffers are hoisted out of
// the level loop (allocated once per engine).

// msPushCost is how many pull arcs one push arc costs: the kernel choice
// pulls when the active arcs exceed (n + m)/(workers · msPushCost). Fitted
// from per-level timings of both kernels on the low-diameter stand-ins'
// batches (DESIGN.md §11).
const msPushCost = 6

// MultiSourceResult is the outcome of one MS-BFS batch. All slices are
// engine-owned and valid only until the next traversal on the engine;
// callers that keep them must copy.
type MultiSourceResult struct {
	// Ecc holds, per source, the eccentricity within the source's
	// connected component. After an aborted run it is only a lower bound
	// (levels completed so far), like a cut-short Eccentricity call.
	Ecc []int32
	// Witness holds, per source, the lowest-id vertex realizing Ecc: at
	// distance exactly Ecc[i] from sources[i] (the source itself when
	// Ecc[i] == 0).
	Witness []graph.Vertex
	// Levels is the number of completed levels (the maximum of Ecc).
	Levels int32
	// Aborted reports that the cancellation flag cut the run short
	// between levels (same contract as Engine.Aborted).
	Aborted bool
}

// msState is the engine's reusable multi-source traversal state.
type msState struct {
	// seen/frontier/next hold one bit per (source, vertex). Invariants
	// between levels: next is all-zero; frontier is nonzero exactly on
	// the active list; seen is nonzero exactly on the dirty list.
	seen, frontier, next []uint64
	// active and nextAct are the current and next frontier vertex lists,
	// swapped every level like the single-source engine's wl1/wl2.
	active, nextAct []graph.Vertex
	// dirty lists every vertex whose words were touched this batch, each
	// exactly once (first-touch detection in the kernels), so the next
	// batch resets O(touched) words instead of O(n).
	dirty []graph.Vertex
	// results and touch are the hoisted per-worker reduction buffers of
	// the pull kernel (advanced-bits OR, first-touch counts) — allocated
	// once, not per level.
	results []uint64
	touch   []int64
	// dbufs are the pull kernel's per-worker first-touch output buffers
	// (the push kernel appends to dirty directly; pull workers may not).
	dbufs [][]graph.Vertex
	// touched counts distinct vertices reached this batch (== len(dirty)).
	touched int
	// ecc and wit are the per-source output buffers (64 slots).
	ecc []int32
	wit []graph.Vertex
}

// MultiSourceRun runs one bit-parallel MS-BFS batch of up to 64 sources
// and returns per-source eccentricities and farthest witnesses. It honors
// the engine's traversal contract: the cancellation flag (SetCancel) is
// polled once per level and aborts between levels, and the barrier
// callback (SetBarrier) runs once per completed level on the calling
// goroutine — so checkpoint cadence and deadline overshoot behave exactly
// as for Eccentricity.
//
// Duplicate sources are allowed (their bits travel together). The result
// slices are engine-owned and valid until the next traversal.
func (e *Engine) MultiSourceRun(sources []graph.Vertex) MultiSourceResult {
	if len(sources) > 64 {
		panic("bfs: MultiSourceRun batch exceeds 64 sources")
	}
	e.aborted = false
	n := e.g.NumVertices()
	ms := &e.ms
	e.ensureMS(n)
	if n == 0 || len(sources) == 0 {
		return MultiSourceResult{Ecc: ms.ecc[:len(sources)], Witness: ms.wit[:len(sources)]}
	}
	e.msReset()

	// Seed the batch: bit i belongs to sources[i].
	for bit, s := range sources {
		if ms.seen[s] == 0 {
			ms.active = append(ms.active, s)
			ms.dirty = append(ms.dirty, s)
		}
		ms.seen[s] |= 1 << uint(bit)
		ms.frontier[s] |= 1 << uint(bit)
	}
	ms.touched = len(ms.active)

	tr := e.trace
	tr.TraversalStart("msbfs", len(sources))
	maxDeg := int64(e.g.MaxDegree())
	pullThr := (int64(n) + e.g.NumArcs()) / int64(e.workers*msPushCost)
	pullStep := obs.StepMSPullSerial
	if e.workers > 1 {
		pullStep = obs.StepMSPullParallel
	}
	// live holds the lanes of the sources still advancing: exactly the
	// union of the current frontier words.
	live := ^uint64(0) >> uint(64-len(sources))
	var level int32
	for live != 0 {
		// One atomic load per level: abort between levels so every
		// recorded eccentricity stays a sound lower bound and the hot
		// kernels carry no cancellation overhead.
		if e.cancel != nil && e.cancel.Load() {
			e.aborted = true
			e.msResolve(live, level)
			break
		}
		if e.barrier != nil {
			e.barrier()
		}
		// Kernel choice, gated like run's: the O(1) nf·maxDeg upper
		// bound on the active arcs keeps the exact O(active) sum off
		// levels where pull is out of the question.
		usePull := false
		if n >= e.serialCutoff {
			if ub := int64(len(ms.active)) * maxDeg; ub > pullThr {
				usePull = e.msActiveArcs() > pullThr
			}
		}
		var lvlStart time.Time
		var lvlArcs int64
		if tr != nil || hLevelSeconds.Armed() {
			lvlStart = time.Now()
		}
		if tr != nil {
			lvlArcs = e.msActiveArcs()
		}
		ms.nextAct = ms.nextAct[:0]
		var advanced uint64
		step := obs.StepMSPush
		if usePull {
			step = pullStep
			advanced = e.msPull(live)
		} else {
			advanced = e.msPush()
		}
		// A lane that did not advance has ended: its eccentricity is the
		// current level, its witness the lowest id in its last frontier.
		if ended := live &^ advanced; ended != 0 {
			e.msResolve(ended, level)
		}
		live = advanced
		if advanced == 0 {
			break
		}
		level++
		e.msSwapFrontier()
		hLevelSeconds.ObserveSince(lvlStart)
		tr.LevelDone(level, step, len(ms.nextAct), lvlArcs, n-ms.touched, lvlStart)
		ms.active, ms.nextAct = ms.nextAct, ms.active
	}
	e.reached = int64(ms.touched)
	tr.TraversalEnd(level, e.reached, 0)
	return MultiSourceResult{
		Ecc:     ms.ecc[:len(sources)],
		Witness: ms.wit[:len(sources)],
		Levels:  level,
		Aborted: e.aborted,
	}
}

// msResolve records level as the eccentricity of every lane in lanes and
// reads each one's witness off the current frontier: the lowest-id active
// vertex whose frontier word carries the lane. The lowest id does not
// depend on the order a kernel emitted the active list in, so witnesses
// agree across kernels and worker counts. Called once per level at which
// some lane ends, and on abort for the lanes still live.
//
//fdiam:hotpath
func (e *Engine) msResolve(lanes uint64, level int32) {
	ms := &e.ms
	for b := lanes; b != 0; b &= b - 1 {
		i := bits.TrailingZeros64(b)
		ms.ecc[i] = level
		ms.wit[i] = graph.NoVertex
	}
	for _, v := range ms.active {
		for b := ms.frontier[v] & lanes; b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			ms.wit[i] = min(ms.wit[i], v)
		}
	}
}

// ensureMS sizes the multi-source state for n vertices and the engine's
// worker count. The word arrays are allocated once per engine (they are
// zero by construction; batches keep them zeroed via the dirty list).
func (e *Engine) ensureMS(n int) {
	ms := &e.ms
	if len(ms.seen) < n {
		ms.seen = make([]uint64, n)
		ms.frontier = make([]uint64, n)
		ms.next = make([]uint64, n)
		ms.dirty = ms.dirty[:0]
	}
	if ms.ecc == nil {
		ms.ecc = make([]int32, 64)
		ms.wit = make([]graph.Vertex, 64)
	}
	if len(ms.results) < e.workers {
		ms.results = make([]uint64, e.workers)
		ms.touch = make([]int64, e.workers)
	}
	for len(ms.dbufs) < e.workers {
		ms.dbufs = append(ms.dbufs, nil)
	}
}

// msReset zeroes the words the previous batch touched — O(touched), not
// O(n).
func (e *Engine) msReset() {
	ms := &e.ms
	for _, v := range ms.dirty {
		ms.seen[v] = 0
		ms.frontier[v] = 0
	}
	ms.dirty = ms.dirty[:0]
	ms.active = ms.active[:0]
	ms.touched = 0
}

// msActiveArcs sums the outgoing-arc counts of the active list. Only
// called on levels where the nf·maxDeg gate passes, or when tracing.
//
//fdiam:hotpath
func (e *Engine) msActiveArcs() int64 {
	offsets := e.g.Offsets()
	var mf int64
	for _, v := range e.ms.active {
		mf += offsets[v+1] - offsets[v]
	}
	return mf
}

// msPush is the serial scatter kernel: each active vertex pushes its
// frontier word along its out-edges. seen is folded in immediately — under
// level synchrony that only suppresses same-level duplicates of the same
// bit, which land at the same distance either way — so there is no
// separate commit pass. Returns the union of freshly advanced bits.
//
//fdiam:hotpath
func (e *Engine) msPush() uint64 {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	seen, frontier, next := e.ms.seen, e.ms.frontier, e.ms.next
	nextAct, dirty := e.ms.nextAct, e.ms.dirty
	touched := e.ms.touched
	var advanced uint64
	for _, v := range e.ms.active {
		fb := frontier[v]
		for _, w := range targets[offsets[v]:offsets[v+1]] {
			nb := fb &^ seen[w]
			if nb == 0 {
				continue
			}
			if seen[w] == 0 {
				dirty = append(dirty, w)
				touched++
			}
			if next[w] == 0 {
				nextAct = append(nextAct, w)
			}
			next[w] |= nb
			seen[w] |= nb
			advanced |= nb
		}
	}
	e.ms.nextAct, e.ms.dirty = nextAct, dirty
	e.ms.touched = touched
	return advanced
}

// msPull is the gather kernel: every vertex gathers the frontier words of
// its neighbors, inline at Workers = 1 and across the worker team
// otherwise. live is the union of the frontier words, so a vertex whose
// seen word covers it can gain nothing and is skipped, and a gather stops
// once the accumulated word and seen together cover it. Race-free by
// ownership — vertex v's seen/next words are written only by the worker
// that owns v's range, and frontier is read-only during the level. The
// per-worker advanced words and first-touch counts land in the hoisted
// reduction buffers; the per-worker frontier/dirty buffers are
// concatenated after the barrier exactly like the parallel bottom-up
// scan's.
//
//fdiam:hotpath
func (e *Engine) msPull(live uint64) uint64 {
	offsets, targets := e.g.Offsets(), e.g.Targets()
	seen, frontier, next := e.ms.seen, e.ms.frontier, e.ms.next
	n := e.g.NumVertices()
	workers := e.workers
	results := e.ms.results[:workers]
	touch := e.ms.touch[:workers]
	for w := 0; w < workers; w++ {
		results[w] = 0
		touch[w] = 0
		e.bufs[w] = e.bufs[w][:0]
		e.ms.dbufs[w] = e.ms.dbufs[w][:0]
	}
	// Lanes outside live can never arrive this level: count them as seen.
	dead := ^live
	e.parForWorker(n, 1024, func(worker, lo, hi int) {
		buf := e.bufs[worker]
		dbuf := e.ms.dbufs[worker]
		var adv uint64
		var tc int64
		for v := lo; v < hi; v++ {
			sv := seen[v]
			full := sv | dead
			if full == ^uint64(0) {
				continue
			}
			var acc uint64
			for _, w := range targets[offsets[v]:offsets[v+1]] {
				acc |= frontier[w]
				if acc|full == ^uint64(0) {
					break
				}
			}
			acc &^= sv
			if acc == 0 {
				continue
			}
			if sv == 0 {
				dbuf = append(dbuf, graph.Vertex(v))
				tc++
			}
			next[v] = acc
			seen[v] = sv | acc
			buf = append(buf, graph.Vertex(v))
			adv |= acc
		}
		e.bufs[worker] = buf
		e.ms.dbufs[worker] = dbuf
		// The same worker id may process many chunks: accumulate.
		results[worker] |= adv
		touch[worker] += tc
	})
	var advanced uint64
	for w := 0; w < workers; w++ {
		advanced |= results[w]
		e.ms.touched += int(touch[w])
		e.ms.dirty = append(e.ms.dirty, e.ms.dbufs[w]...)
	}
	e.ms.nextAct = e.concatInto(e.ms.nextAct)
	return advanced
}

// msSwapFrontier retires the old frontier and installs the new one: clear
// the old active list's frontier words, then move next into frontier over
// the new list (zeroing next, restoring the between-level invariant). Both
// passes write frontier-indexed, i.e. random, positions, which split over
// two workers measured no faster than one, so they run serially.
//
//fdiam:hotpath
func (e *Engine) msSwapFrontier() {
	ms := &e.ms
	for _, v := range ms.active {
		ms.frontier[v] = 0
	}
	for _, w := range ms.nextAct {
		ms.frontier[w] = ms.next[w]
		ms.next[w] = 0
	}
}
