package core

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"fdiam/internal/bfs"
	"fdiam/internal/checkpoint"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
	"fdiam/internal/par"
)

// Diameter runs the F-Diam algorithm (Algorithm 1) on g and returns the
// exact diameter together with the evaluation statistics the paper reports.
// For disconnected inputs the result carries Infinite=true and Diameter
// holds the largest eccentricity over all connected components, matching
// the paper's output convention.
//
//fdiamlint:ignore ctxflow compat facade kept for ctx-less callers; cancellable callers use DiameterCtx
func Diameter(g *graph.Graph, opt Options) Result {
	//fdiamlint:ignore ctxflow the facade's whole point is synthesizing the root ctx for DiameterCtx
	return DiameterCtx(context.Background(), g, opt)
}

// DiameterCtx is Diameter under a context: cancelling ctx (or exceeding
// Options.Timeout, which is implemented as a context.WithTimeout layered on
// ctx) aborts the computation at the next BFS level boundary — inside a
// traversal, not just between stages — and returns the best lower bound
// established so far with Result.Cancelled set (plus Result.TimedOut when
// the cause was a deadline). The returned statistics stay consistent: no
// partial traversal is ever recorded as an exact eccentricity or as a
// removal the state arrays do not reflect.
func DiameterCtx(ctx context.Context, g *graph.Graph, opt Options) Result {
	s := newSolver(g, opt)
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	s.ctx = ctx
	s.lg = obs.LoggerFrom(ctx)
	if ctx.Done() != nil {
		// The flag flips exactly when ctx is done; AfterFunc avoids both
		// per-level ctx.Err() mutex traffic and a dedicated watcher
		// goroutine (the runtime runs the callback once, on cancellation).
		stop := context.AfterFunc(ctx, func() { s.cancelFlag.Store(true) })
		defer stop()
		if ctx.Err() != nil {
			// Already cancelled: AfterFunc runs its callback asynchronously,
			// so set the flag here to make the abort deterministic rather
			// than racing a fast solve against goroutine scheduling.
			s.cancelFlag.Store(true)
		}
	}
	s.e.SetCancel(&s.cancelFlag)
	return s.run()
}

// solver holds the mutable state of one F-Diam run.
type solver struct {
	g   *graph.Graph
	e   *bfs.Engine
	opt Options

	// ecc is the per-vertex state array: Active, Winnowed, an upper
	// bound recorded by Eliminate/Chain, or a computed eccentricity.
	// Any value below Active means "removed from consideration".
	ecc []int32
	// stage attributes each removal for the Table 4 accounting.
	stage []Stage

	bound int32
	start graph.Vertex

	// ubCap is the proven diameter upper bound (-1 until one exists). The
	// 2-sweep establishes it — min(2·ecc(u), n−1) for a connected graph by
	// the triangle inequality through u, n−1 otherwise — and it holds for
	// the rest of the run, collapsing to the exact answer at completion.
	// Published with the lower bound as the streaming [lb, ub] corridor.
	ubCap int32

	// epsilon is the effective anytime tolerance: Options.Epsilon, unless
	// a resumed snapshot recorded a positive ε and the caller passed 0, in
	// which case the snapshot's value is adopted (tryResume). Values ≤ 0
	// disable the early exit.
	epsilon int32

	// earlyExit records why the run stopped before proving lb == ub: ""
	// for a run that went the distance, exitEpsilon for the ε-early-exit,
	// exitApprox for approximation mode. finish() keeps the corridor open
	// (no capUB collapse) exactly when this is set or the run was
	// cancelled.
	earlyExit string

	// lg receives the run's structured log lines (stage transitions, bound
	// improvements, completion). Carried in via the context so fdiamd's
	// per-request logger makes every line joinable on request_id; defaults
	// to the shared discard logger.
	lg *slog.Logger

	// witnessA/witnessB track a vertex pair realizing the current bound:
	// whenever a BFS establishes a new bound, its source and a vertex of
	// its last frontier are exactly bound apart.
	witnessA, witnessB graph.Vertex

	// dist holds d(start, v) for every vertex (−1: another component):
	// Winnow reads its ball off it, and the main loop's scan order is
	// built from it. winnowDepth is the radius already winnowed, −1
	// before the first Winnow call.
	dist        []int32
	winnowDepth int32

	// chainDone records, per chain-end vertex, the largest chain length
	// already eliminated around it, so hubs with many degree-1 neighbors
	// are not re-eliminated once per leaf (a star would otherwise cost
	// O(n²); skipping repeats is a pure no-op semantically because
	// Eliminate is idempotent removal). chainMax as the recorded length
	// means the ball exhausted everything reachable around the hub.
	// chainRing keeps each hub ball's outermost freshly-removed ring, so
	// a longer chain arriving later extends the ball incrementally from
	// the ring instead of re-traversing the interior (mirroring
	// extendEliminated's scheme for bound growth).
	chainDone map[graph.Vertex]int32
	chainRing map[graph.Vertex][]graph.Vertex

	// ctx is the run's context; cancelFlag flips (via context.AfterFunc)
	// the moment it is done. The solver polls the flag at stage
	// boundaries and hands it to the BFS engine for the per-level check.
	ctx        context.Context
	cancelFlag atomic.Bool

	// ck is the crash-safe checkpointing state (see checkpoint.go). A
	// restored snapshot sets resumed and base, the restored counters that
	// let Stats continue across the process boundary (zero for a fresh
	// solve); a rejected restore records its reason in resumeErr and the
	// run degrades to a fresh solve.
	ck        ckptState
	resumed   bool
	resumeErr string
	base      checkpoint.Counters
	t0        time.Time

	// order is the main loop's scan list: the vertices still Active when
	// the loop starts, in ascending (d(start, v), v) order (survivorOrder).
	order []graph.Vertex

	// MS-BFS batching cost-model state (batch.go). pruneEWMA tracks the
	// recent removals-per-evaluation average (-1 until the first main-loop
	// evaluation seeds it); batchBuf is the reused ≤64-source collection
	// buffer.
	pruneEWMA float64
	batchBuf  []graph.Vertex

	stats Stats
}

func newSolver(g *graph.Graph, opt Options) *solver {
	workers := opt.Workers
	if workers < 1 {
		workers = par.DefaultWorkers()
	}
	e := bfs.New(g, workers)
	e.SetDirectionOptimized(!opt.DisableDirectionOpt)
	e.SetTracer(opt.Trace)
	s := &solver{
		g:   g,
		e:   e,
		opt: opt,
		//fdiamlint:ignore ctxflow constructor default only; DiameterCtx overwrites it with the caller's ctx before solving
		ctx:         context.Background(),
		ubCap:       -1,
		winnowDepth: -1,
		epsilon:     opt.Epsilon,
		lg:          obs.DiscardLogger(),
		witnessA:    graph.NoVertex,
		witnessB:    graph.NoVertex,
		pruneEWMA:   -1,
	}
	return s
}

// cancelled reports whether the run's context is done. One atomic load —
// cheap enough for per-vertex loops (the chain scan, the main loop).
func (s *solver) cancelled() bool { return s.cancelFlag.Load() }

// Early-exit reasons recorded in solver.earlyExit and reported as the
// solve_done outcome.
const (
	exitEpsilon = "epsilon"
	exitApprox  = "approx"
)

// epsilonReached reports whether the ε-early-exit fires: a positive
// tolerance is configured and the proven corridor is at least that tight.
// Soundness is inherited from the corridor itself — bound is a realized
// lower bound (a witness pair is exactly bound apart) and ubCap a proven
// cap, so stopping any time they are within ε reports an honest gap.
func (s *solver) epsilonReached() bool {
	return s.epsilon > 0 && s.ubCap >= 0 && s.ubCap-s.bound <= s.epsilon
}

// corridorClosed reports that the corridor is within the requested
// tolerance treating a non-positive ε as 0 — approximation mode's stopping
// rule, which always quits once the answer is exact (gap 0) even with no ε
// configured.
func (s *solver) corridorClosed() bool {
	eps := s.epsilon
	if eps < 0 {
		eps = 0
	}
	return s.ubCap >= 0 && s.ubCap-s.bound <= eps
}

func (s *solver) run() Result {
	tStart := time.Now()
	s.t0 = tStart

	// finish assembles the Result on every exit path — normal completion
	// and every cancellation point. A cancelled run reports the best
	// lower bound established so far; TimedOut additionally distinguishes
	// deadline causes (Options.Timeout or a deadline on the caller's ctx)
	// from plain cancellation.
	finish := func(infinite bool) Result {
		cancelled := s.cancelled()
		early := s.earlyExit != ""
		if checkedBuild {
			s.checkStateConsistency("final")
			s.checkFinal(infinite, cancelled, early)
		}
		s.stats.DirSwitches = s.base.DirSwitches + s.e.DirectionSwitches()
		s.stats.TimeTotal = s.base.TimeTotal + time.Since(tStart)
		s.countWork()
		timedOut := cancelled && errors.Is(context.Cause(s.ctx), context.DeadlineExceeded)
		// Terminal corridor event: full completion proves the lower bound
		// exact (lb == ub); an early exit (ε-stop, approximation mode) keeps
		// the honest open corridor; an aborted run that never finished its
		// 2-sweep still reports the trivial n−1 cap rather than "unknown".
		if !cancelled && !early {
			s.capUB(s.bound)
		} else if s.ubCap < 0 {
			if nv := s.g.NumVertices(); nv > 0 {
				s.capUB(int32(nv) - 1)
			}
		}
		s.publishBounds()
		upper := s.ubCap
		if upper < 0 {
			// Unreachable in practice (finish is never called with n == 0),
			// kept so a pathological path still reports a closed corridor.
			upper = s.bound
		}
		gap := upper - s.bound
		if early && !cancelled {
			cEarlyExits.Inc()
			if s.earlyExit == exitApprox {
				hEarlyGapApprox.Observe(int64(gap))
			} else {
				hEarlyGapEpsilon.Observe(int64(gap))
			}
		}
		if s.lg.Enabled(s.ctx, slog.LevelInfo) {
			outcome := "ok"
			switch {
			case timedOut:
				outcome = "timeout"
			case cancelled:
				outcome = "cancelled"
			case early:
				outcome = s.earlyExit
			}
			s.lg.Info("solve_done",
				obs.KeyDiameter, s.bound, obs.KeyUpper, upper, obs.KeyGap, gap,
				obs.KeyOutcome, outcome,
				obs.KeyElapsedMS, s.stats.TimeTotal.Milliseconds())
		}
		return Result{
			Diameter:    s.bound,
			Upper:       upper,
			Gap:         gap,
			Approximate: gap > 0,
			Infinite:    infinite,
			TimedOut:    timedOut,
			Cancelled:   cancelled,
			Resumed:     s.resumed,
			ResumeError: s.resumeErr,
			WitnessA:    s.witnessA,
			WitnessB:    s.witnessB,
			Stats:       s.stats,
		}
	}

	n := s.g.NumVertices()
	s.stats.Vertices = n
	if s.lg.Enabled(s.ctx, slog.LevelInfo) {
		s.lg.Info("solve_start", obs.KeyVertices, int64(n))
	}
	tr := s.opt.Trace
	if tr != nil {
		tr.SetVertices(int64(n))
		tr.Begin("run", "diameter", obs.I("vertices", int64(n)))
		defer func() {
			s.observeProgress()
			tr.End("run", "diameter",
				obs.I("diameter", int64(s.bound)),
				obs.I("ecc_bfs", s.stats.EccBFS),
				obs.I("winnow_calls", s.stats.WinnowCalls),
				obs.I("eliminate_calls", s.stats.EliminateCalls))
		}()
	}
	if n == 0 {
		return Result{WitnessA: graph.NoVertex, WitnessB: graph.NoVertex, Stats: s.stats}
	}

	// Initialization: state arrays and the degree-0 pass. Isolated
	// vertices have eccentricity 0 and need no BFS (Table 4's last
	// column).
	s.beginStage("init")
	tInit := time.Now()
	s.initVertexState(n, s.e.Workers())
	firstNonIsolated := -1
	for v := 0; v < n; v++ {
		if s.g.Degree(graph.Vertex(v)) == 0 {
			s.markIsolated(graph.Vertex(v))
		} else if firstNonIsolated < 0 {
			firstNonIsolated = v
		}
	}
	s.stats.TimeInit = time.Since(tInit)
	if tr != nil {
		tr.End("stage", "init", obs.I("removed_degree0", s.stats.RemovedDegree0))
		s.observeProgress()
	}
	if firstNonIsolated < 0 {
		// Edgeless graph: every eccentricity is 0 and no pair of
		// distinct vertices witnesses a positive diameter.
		s.stats.TimeTotal = time.Since(tStart)
		return Result{
			Diameter: 0, Infinite: n > 1,
			WitnessA: graph.NoVertex, WitnessB: graph.NoVertex,
			Stats: s.stats,
		}
	}

	// Sampled approximation mode: a few double sweeps build the corridor
	// and the run stops there — no Winnow, no main loop, no checkpointing.
	if s.opt.Approx.Sweeps > 0 {
		return finish(s.approxRun(firstNonIsolated))
	}

	// Checkpointing and resume. A restored snapshot was captured at a
	// main-loop boundary, so the 2-sweep, Winnow and Chain stages are
	// already reflected in its state arrays and the run jumps straight
	// to the main loop over the restored Active set; a rejected restore
	// (missing, corrupt, wrong graph) degrades to a fresh solve.
	s.initCheckpoint()
	var infinite bool
	var tEcc time.Time
	// s.dist gets d(start, v) from the start's BFS; maxDist = ecc(start)
	// is its largest entry.
	s.dist = make([]int32, n)
	var maxDist int32
	if s.tryResume() {
		infinite = s.ck.infinite
		// The snapshot carries no eccentricity of u, so the resumed
		// corridor opens at the trivial cap.
		s.capUB(int32(n) - 1)
		s.publishBounds()
		// Rebuilding the start's distances, which the scan order and any
		// later Winnow extension read, costs one BFS from the restored
		// start. It evaluates nothing, so it is not an eccentricity BFS;
		// a cancel that cuts it short leaves vertices at dist −1, which
		// only moves them to the end of an order the loop abandons at
		// once.
		maxDist = s.e.Distances(s.start, s.dist)
	} else {
		// Starting vertex: the maximum-degree vertex u (§3), or — for the
		// "no 'u'" ablation — the first vertex with at least one edge.
		if s.opt.StartAtVertexZero {
			s.start = graph.Vertex(firstNonIsolated)
		} else {
			s.start = s.g.MaxDegreeVertex()
		}

		// Initial diameter via 2-sweep (§4.1): ecc(u), then the eccentricity
		// of a vertex w maximally far from u becomes the initial bound.
		s.beginStage("2-sweep", obs.I("start", int64(s.start)))
		endSweep := func() {
			if tr != nil {
				tr.End("stage", "2-sweep", obs.I("bound", int64(s.bound)))
				s.observeProgress()
			}
		}
		tEcc = time.Now()
		uEcc := s.e.Distances(s.start, s.dist)
		maxDist = uEcc
		s.stats.EccBFS++
		s.stats.TimeEcc += time.Since(tEcc)
		if s.e.Aborted() {
			// The completed levels of the aborted traversal still lower-bound
			// ecc(u) and hence the diameter: the engine's current frontier is
			// exactly uEcc levels from u. Nothing is recorded as exact.
			s.raiseLB(uEcc, s.start, sweepPartner(s.e.LastFrontier()))
			endSweep()
			return finish(false)
		}
		reached := s.e.Reached()
		// A BFS from start reaches exactly its component; together with the
		// isolated-vertex count this decides connectivity with no extra pass.
		infinite = n > 1 && (s.stats.RemovedDegree0 > 0 || reached < int64(n)-s.stats.RemovedDegree0)
		// First proven upper bound: any a–b path detours through u, so
		// d(a,b) ≤ 2·ecc(u) when the graph is connected; n−1 regardless.
		s.capUB(int32(n) - 1)
		if !infinite {
			if ub := 2 * int64(uEcc); ub < int64(s.ubCap) {
				s.capUB(int32(ub))
			}
		}
		s.setComputed(s.start, uEcc)
		w := sweepPartner(s.e.LastFrontier())
		s.raiseLB(uEcc, s.start, w)
		if w != s.start && !s.cancelled() {
			// w's distances stay in hand for the centre step below, whose
			// BFS then reuses the array.
			distW := make([]int32, n)
			tEcc = time.Now()
			wEcc := s.e.Distances(w, distW)
			s.stats.EccBFS++
			s.stats.TimeEcc += time.Since(tEcc)
			z := sweepPartner(s.e.LastFrontier())
			s.raiseLB(wEcc, w, z)
			if s.e.Aborted() {
				endSweep()
				return finish(infinite)
			}
			s.setComputed(w, wEcc)
			// Centre step: when u is visibly off-centre (a centre's
			// eccentricity is about half the bound, Theorem 3), Winnow and
			// the survivor scan start at the midpoint m of a w–z diameter
			// path instead, provided m's ball is the larger one. The "no
			// 'u'" ablation keeps its fixed start.
			if !s.opt.StartAtVertexZero && 2*int64(uEcc) > int64(wEcc)+2 && !s.cancelled() {
				m := midpoint(s.g, distW, z)
				if s.ecc[m] == Active {
					tEcc = time.Now()
					mEcc := s.e.Distances(m, distW)
					s.stats.EccBFS++
					s.stats.TimeEcc += time.Since(tEcc)
					s.raiseLB(mEcc, m, sweepPartner(s.e.LastFrontier()))
					if s.e.Aborted() {
						endSweep()
						return finish(infinite)
					}
					s.setComputed(m, mEcc)
					if ub := 2 * int64(mEcc); !infinite && ub < int64(s.ubCap) {
						s.capUB(int32(ub))
					}
					if largerBall(distW, s.dist, s.bound/2) {
						s.start = m
						s.dist = distW
						maxDist = mEcc
					}
				}
			}
		}
		if tr != nil {
			tr.Instant("bound", "initial", obs.I("bound", int64(s.bound)))
		}
		s.publishBounds()
		endSweep()
		if s.cancelled() {
			return finish(infinite)
		}

		// Winnow around the starting vertex (§4.2). Winnow subsumes what an
		// Eliminate around it could remove (Theorem 3: ecc(start) ≥ bound/2,
		// so the winnow radius ⌊bound/2⌋ is at least the eliminate radius
		// bound − ecc(start)), which is why F-Diam never Eliminates around
		// its start (§4.5) — and why the "no Winnow" ablation leaves the initial
		// pruning out entirely, as in the paper's Table 5.
		if !s.opt.DisableWinnow {
			s.winnow()
			if s.cancelled() {
				return finish(infinite)
			}
		}

		// Chain Processing (§4.3).
		if !s.opt.DisableChain {
			s.chains()
			if s.cancelled() {
				return finish(infinite)
			}
		}
	}

	// Main loop (Algorithm 1): evaluate the remaining active vertices,
	// nearest start first. Eliminate's ball radius is bound − ecc(v), and
	// the vertices near start tend to have the smallest eccentricities, so
	// their large balls remove the outer survivors before the scan reaches
	// them (DESIGN.md §1, step 5).
	s.order = survivorOrder(s.ecc, s.dist, maxDist)
	s.beginStage("main-loop")
	s.ck.infinite = infinite
	completed := true
	for i, v := range s.order {
		// ε-early-exit: stop as soon as the corridor is within tolerance.
		// The check runs before the Active skip so a tolerance met by the
		// 2-sweep/Winnow stages (or a resumed snapshot) stops the loop on
		// entry. The stopping point is checkpointed so a later exact (or
		// tighter-ε) run refines from here instead of starting over — every
		// vertex the loop has passed is already removed or computed, so the
		// Active set is exactly the unprocessed remainder.
		if s.epsilonReached() {
			s.earlyExit = exitEpsilon
			if tr != nil {
				tr.Instant("run", "epsilon-exit")
			}
			s.writeCheckpoint()
			completed = false
			break
		}
		if s.ecc[v] != Active {
			continue
		}
		if s.cancelled() {
			if tr != nil {
				tr.Instant("run", "cancelled")
			}
			// Persist the interruption point so a later run resumes here
			// instead of starting over (no-op without a checkpoint dir).
			s.writeCheckpoint()
			completed = false
			break
		}
		// Batched evaluation (§DESIGN 11): when the cost model says the
		// remaining survivors are bulk work, consume the next ≤64 of them
		// with one bit-parallel MS-BFS instead of one BFS each. runBatch
		// commits in list order, so the scan simply skips the vertices the
		// batch computed (or pruned).
		if s.batchEligible() {
			if !s.runBatch(i) {
				completed = false
				break
			}
			// v was the batch's first source and is now computed; every
			// other source the batch committed fails the Active check.
			continue
		}
		s.ck.calls++
		tEcc = time.Now()
		s.ck.armed = true
		vecc := s.e.Eccentricity(v)
		s.ck.armed = false
		s.stats.EccBFS++
		s.stats.TimeEcc += time.Since(tEcc)
		if s.e.Aborted() {
			// The truncated level count still lower-bounds ecc(v); use it
			// if it beats the bound, but never record it as exact.
			s.raiseLB(vecc, v, sweepPartner(s.e.LastFrontier()))
			if tr != nil {
				tr.Instant("run", "cancelled")
			}
			s.writeCheckpoint()
			completed = false
			break
		}
		before := s.removedTotal()
		s.setComputed(v, vecc)
		switch {
		case vecc > s.bound:
			// New lower bound for the diameter: extend the winnow
			// ball and all prior eliminated regions (§4.5).
			old := s.improveBound(vecc, v, sweepPartner(s.e.LastFrontier()))
			if !s.opt.DisableWinnow {
				s.winnow()
			}
			if !s.opt.DisableEliminate {
				tEl := time.Now()
				s.extendEliminated(old)
				s.stats.TimeEliminate += time.Since(tEl)
			}
		case vecc < s.bound && !s.opt.DisableEliminate:
			// Theorem 1: everything within bound−ecc(v) of v
			// cannot beat the bound (§4.4).
			tEl := time.Now()
			s.eliminateFrom([]graph.Vertex{v}, vecc, s.bound, StageEliminate)
			s.stats.TimeEliminate += time.Since(tEl)
		default:
			// vecc == bound: only v itself is removed (already
			// done by setComputed).
		}
		if s.cancelled() {
			// The cancel may have cut v's Winnow/Eliminate step short, so
			// no snapshot may record v as computed: keep the previous one,
			// which resumes by redoing v.
			completed = false
			break
		}
		// Cost-model feedback: this evaluation's pruning yield (batch.go).
		s.notePruning(s.removedTotal() - before)
		s.observeProgress()
		s.ckptAfterVertex()
	}
	if completed {
		// The solve is done; a leftover snapshot would only make a later
		// run of the same directory resume into a finished state.
		s.clearCheckpoint()
	}
	if tr != nil {
		tr.End("stage", "main-loop", obs.I("computed", s.stats.Computed))
	}
	return finish(infinite)
}

// sweepPartner picks a vertex off the last level of a BFS — the 2-sweep's
// second source, the centre step's z, and every witness: its lowest id. Any
// vertex there is maximally far from the source; taking the lowest makes
// the choice independent of the order a parallel kernel emitted the level
// in, so every worker count runs the same solve and reports the same pair.
func sweepPartner(last []graph.Vertex) graph.Vertex {
	w := last[0]
	for _, v := range last[1:] {
		w = min(w, v)
	}
	return w
}

// midpoint walks from z toward the source of distW (its distance-0 vertex)
// along strictly decreasing distances and returns the vertex at distance
// ⌊distW[z]/2⌋: the middle of a shortest path from the source to z. Step k
// takes the (k mod c)-th of the c neighbours one step closer, in adjacency
// order. Always taking the first would run along a grid's boundary to a
// corner; alternating keeps the walk on the diagonal, so it ends near the
// centre.
func midpoint(g *graph.Graph, distW []int32, z graph.Vertex) graph.Vertex {
	v, half := z, distW[z]/2
	for k := 0; distW[v] > half; k++ {
		closer := distW[v] - 1
		c := 0
		for _, x := range g.Neighbors(v) {
			if distW[x] == closer {
				c++
			}
		}
		pick, next := k%c, v
		for _, x := range g.Neighbors(v) {
			if distW[x] == closer {
				if pick == 0 {
					next = x
					break
				}
				pick--
			}
		}
		v = next
	}
	return v
}

// largerBall reports whether strictly more vertices lie within r of the
// source of distM than within r of the source of distU, in one pass over
// both distance arrays (−1, unreached, counts as outside).
func largerBall(distM, distU []int32, r int32) bool {
	var m, u int
	for v, d := range distM {
		if uint32(d) <= uint32(r) {
			m++
		}
		if uint32(distU[v]) <= uint32(r) {
			u++
		}
	}
	return m > u
}

// survivorOrder lists the Active vertices of ecc in ascending
// (dist[v], v) order: a counting sort over distances 0..maxDist, O(n +
// maxDist). Vertices dist leaves unplaced (−1: another component, or a BFS
// cut short) sort after every placed one, still by id.
func survivorOrder(ecc, dist []int32, maxDist int32) []graph.Vertex {
	unplaced := int(maxDist) + 1
	key := func(v int) int {
		if d := dist[v]; d >= 0 {
			return int(d)
		}
		return unplaced
	}
	// pos[k] becomes the first slot of distance k.
	pos := make([]int, unplaced+2)
	for v, e := range ecc {
		if e == Active {
			pos[key(v)+1]++
		}
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	order := make([]graph.Vertex, pos[len(pos)-1])
	for v, e := range ecc {
		if e == Active {
			k := key(v)
			order[pos[k]] = graph.Vertex(v)
			pos[k]++
		}
	}
	return order
}

// improveBound raises the lower bound to ecc, which src's main-loop
// evaluation proved with witness w, and reports the raise once: Stats,
// the trace instant, and the corridor stream with its log line. Returns
// the previous bound.
func (s *solver) improveBound(ecc int32, src, w graph.Vertex) (old int32) {
	old = s.bound
	s.raiseLB(ecc, src, w)
	s.stats.BoundImprovements++
	s.opt.Trace.BoundImproved(old, ecc, uint32(src))
	s.publishBounds()
	return old
}

// publishBounds streams the current [lower, upper] corridor with its
// witness pair to the run's bound subscribers (fdiamd's SSE streams) and
// logs it at debug level. No-op cost without a tracer and with the discard
// logger: one nil check and one Enabled check.
func (s *solver) publishBounds() {
	if tr := s.opt.Trace; tr != nil {
		tr.PublishBounds(int64(s.bound), int64(s.ubCap),
			int64(s.witnessA), int64(s.witnessB))
	}
	if s.lg.Enabled(s.ctx, slog.LevelDebug) {
		s.lg.Debug("bound_tightened",
			obs.KeyBound, s.bound, obs.KeyUpper, s.ubCap,
			obs.KeyWitnessA, int64(s.witnessA), obs.KeyWitnessB, int64(s.witnessB))
	}
}

// beginStage enters one of the solver's stages: a debug log line, so a
// request log shows the phase transitions, and the trace's stage span,
// which also labels the progress line. The caller closes the span.
func (s *solver) beginStage(stage string, args ...obs.Arg) {
	if s.lg.Enabled(s.ctx, slog.LevelDebug) {
		s.lg.Debug("stage", obs.KeyStage, stage)
	}
	s.opt.Trace.Begin("stage", stage, args...)
}

// observeProgress pushes the remaining active-vertex count to the
// attached observability run (no-op without one).
func (s *solver) observeProgress() {
	if tr := s.opt.Trace; tr != nil {
		tr.SetActive(s.activeRemaining())
	}
}

// countWork adds this solve's own work to the process-wide counters, so
// /metrics counts every finished solve, traced or not. A resumed solve
// subtracts the work its snapshot carried in.
func (s *solver) countWork() {
	st := &s.stats
	cBFSTraversals.Add(st.BFSTraversals() - s.base.EccBFS - s.base.WinnowCalls)
	cDirSwitches.Add(s.e.DirectionSwitches())
	cBoundImprovements.Add(st.BoundImprovements - s.base.BoundImprovements)
}
