package core

import (
	"time"

	"fdiam/internal/obs"
)

// Options configures a Diameter computation. The zero value requests the
// full parallel F-Diam algorithm with default parallelism.
type Options struct {
	// Workers sets the number of parallel workers used inside each BFS.
	// 0 selects GOMAXPROCS; 1 selects the serial implementation
	// (the paper's "F-Diam (ser)").
	Workers int

	// DisableWinnow turns Winnow off (the "no Winnow" ablation of
	// Table 5 / Figure 9): the initial pruning is left out entirely, as
	// in the paper's ablation, so all removals fall to Eliminate and
	// Chain Processing in the main loop.
	DisableWinnow bool

	// DisableEliminate turns Eliminate and eliminated-region extension
	// off (the "no Elim." ablation).
	DisableEliminate bool

	// DisableChain turns Chain Processing off. The paper does not ablate
	// this stage in Table 5, but it is useful for studying chains.
	DisableChain bool

	// StartAtVertexZero starts the 2-sweep and Winnow from the first
	// vertex with an edge (vertex 0 unless it is isolated) instead of the
	// maximum-degree vertex u (the "no 'u'" ablation). It also skips the
	// centre step that may move Winnow from u to the sweep midpoint, so the
	// ablation measures a fixed start, as the paper's Table 5 does.
	StartAtVertexZero bool

	// DisableDirectionOpt forces plain top-down BFS, disabling the
	// bottom-up switch of the direction-optimized hybrid. Useful for
	// measuring how much the hybrid contributes.
	DisableDirectionOpt bool

	// Trace attaches an observability run: the solver emits
	// run/stage/traversal/level spans, bound-improvement instants, and
	// live progress (stage, bound, active vertices) to it, and the BFS
	// engine emits per-level events. nil (the default) disables all
	// instrumentation with zero overhead — every emission site is
	// nil-guarded and the hot-path methods are allocation-free on nil.
	Trace *obs.Run

	// Checkpoint configures crash-safe snapshots of the solver state and
	// resuming from one (see internal/checkpoint and DESIGN.md §10). The
	// zero value disables both.
	Checkpoint CheckpointOptions

	// Epsilon enables the anytime early exit: when positive, the solver
	// stops as soon as the proven corridor satisfies ub − lb ≤ Epsilon and
	// reports it through Result.Diameter/Upper/Gap with Approximate set
	// (unless the corridor collapsed to gap 0, which is an exact answer).
	// Zero solves exactly — except that a resumed run (Checkpoint.
	// ResumeFrom) adopts the ε recorded in the snapshot, so refinement
	// chains keep the tolerance the original caller asked for. A negative
	// value forces an exact solve even on resume. The ε-stop writes a
	// checkpoint (when a Dir is configured) so a later exact or tighter-ε
	// run resumes from the stopping point instead of starting over.
	Epsilon int32

	// Approx configures sampled approximation mode: a budgeted
	// multi-double-sweep estimator that returns a sound [lb, ub] corridor
	// without entering the main loop. The zero value disables it.
	Approx ApproxOptions

	// Timeout aborts the computation after the given wall-clock duration.
	// Zero means no limit. It is implemented as a context.WithTimeout
	// layered on the caller's context (DiameterCtx) and enforced at every
	// BFS level boundary, so even a single huge traversal — or the
	// 2-sweep, Winnow and Chain stages — stops within one level of the
	// deadline. A timed-out run reports TimedOut (and Cancelled) in the
	// Result; Diameter then holds the best lower bound found so far,
	// mirroring the paper's "T/O" entries.
	Timeout time.Duration

	// batch overrides the batching cost model (batch.go). Only this
	// package's tests set it, to compare forced batching against never
	// batching; the zero value leaves every decision to the cost model.
	batch batchMode
}

// ApproxOptions configures the sampled approximation mode: Sweeps double
// sweeps — the first from the maximum-degree vertex, the rest from
// deterministically sampled random non-isolated vertices — each raising the
// lower bound via raiseLB and capping the upper bound via the triangle
// inequality (ub ≤ min(2·ecc(src), n−1) on connected graphs). The corridor
// is sound by construction; it is exact only when it happens to collapse.
// Approximation mode skips Winnow, Chain Processing and the main loop, and
// ignores checkpointing (a run this short has nothing worth resuming).
type ApproxOptions struct {
	// Sweeps is the number of double sweeps (two BFS each, the second from
	// the farthest vertex the first one found). Positive values enable
	// approximation mode; the estimator stops early if the corridor
	// collapses to gap ≤ max(Epsilon, 0).
	Sweeps int

	// Seed seeds the deterministic source sampler for sweeps after the
	// first. Two runs with equal Seed and Sweeps pick identical sources.
	Seed uint64
}

// CheckpointOptions configures crash-safe checkpointing of a solve.
// Snapshots capture the main loop's monotone state (bound, witnesses,
// per-vertex state, winnow/chain extension state, counters) at points where
// it is consistent — main-loop vertex boundaries and BFS level boundaries
// inside main-loop eccentricity traversals — so a resumed run redoes at
// most the one BFS that was in flight.
type CheckpointOptions struct {
	// Dir is the directory the snapshot file (checkpoint.FileName) is
	// written into, atomically replacing the previous one. Empty disables
	// checkpoint writes. The directory is created if missing.
	Dir string

	// Interval writes a snapshot every Interval main-loop eccentricity
	// BFS calls. Zero or negative disables the count-based cadence.
	Interval int

	// Every writes a snapshot once this much wall-clock time has passed
	// since the last write, checked at main-loop vertex boundaries and at
	// BFS level boundaries inside main-loop traversals (a single huge
	// traversal still checkpoints on schedule). Zero or negative disables
	// the time-based cadence. When Dir is set and neither cadence is,
	// Every defaults to 10s.
	Every time.Duration

	// ResumeFrom names a snapshot file to restore before solving. The
	// snapshot must pass integrity checks and validate against the
	// graph's content hash; any failure falls back to a fresh solve with
	// the reason reported in Result.ResumeError. Empty starts fresh.
	ResumeFrom string
}
