package core

import (
	"fmt"
	"time"
)

// Stats records everything the paper's evaluation section reports about a
// single F-Diam run: the BFS-traversal count (Table 3, counting
// eccentricity BFS calls plus Winnow invocations), per-stage removal counts
// (Table 4), and per-stage wall-clock time (Figure 8).
// The json tags (durations serialize as nanoseconds) back the CLI's -json
// output; field names are stable output format, not just Go API.
type Stats struct {
	Vertices int `json:"vertices"`

	// EccBFS is the number of eccentricity-computing BFS traversals,
	// including the two 2-sweep traversals and the centre step's one.
	EccBFS int64 `json:"ecc_bfs"`
	// WinnowCalls is the number of Winnow invocations (initial + each
	// incremental extension). The paper counts these as BFS traversals
	// in Table 3 because its Winnow is a partial BFS that typically
	// covers most of the graph; here a call is a linear scan of the
	// start's distances and runs no traversal, but BFSTraversals keeps
	// the paper's accounting.
	WinnowCalls int64 `json:"winnow_calls"`
	// EliminateCalls counts Eliminate invocations plus multi-source
	// region extensions. Not counted as BFS traversals (paper §6.3).
	EliminateCalls int64 `json:"eliminate_calls"`
	// EliminateVisited is the total number of frontier vertices the
	// Eliminate partial traversals reported across all calls (chain
	// eliminations included) — the work measure that pins the
	// incremental chain-extension behavior in tests.
	EliminateVisited int64 `json:"eliminate_visited"`
	// BoundImprovements counts how often the main loop found a vertex
	// whose eccentricity exceeded the current bound.
	BoundImprovements int64 `json:"bound_improvements"`
	// DirSwitches counts the BFS engine's direction switches
	// (top-down↔bottom-up, either way) summed over every traversal of
	// the run — the observability hook for the α/β heuristic.
	DirSwitches int64 `json:"dir_switches"`

	// Removal attribution (Table 4): how many vertices each stage
	// removed from consideration.
	RemovedWinnow    int64 `json:"removed_winnow"`
	RemovedEliminate int64 `json:"removed_eliminate"`
	RemovedChain     int64 `json:"removed_chain"`
	RemovedDegree0   int64 `json:"removed_degree0"`
	// Computed counts vertices whose eccentricity was computed explicitly.
	Computed int64 `json:"computed"`

	// Checkpoints counts snapshots successfully written during this run
	// (not persisted across resumes — it describes this process's work).
	Checkpoints int64 `json:"checkpoints"`

	// MS-BFS batching accounting. These describe how the main loop's
	// evaluations were executed, not what they computed: a batched run
	// and an unbatched run of the same input agree on every counter
	// above (EccBFS counts committed sources), while the three below are
	// zero without batching. MSBFSDiscarded counts batch sources whose
	// result was thrown away because an earlier commit of the same batch
	// pruned them first — the batching scheme's wasted work.
	MSBFSBatches   int64 `json:"msbfs_batches"`
	MSBFSSources   int64 `json:"msbfs_sources"`
	MSBFSDiscarded int64 `json:"msbfs_discarded"`

	// Stage timings (Figure 8).
	TimeInit      time.Duration `json:"time_init_ns"`   // setup: state arrays, degree-0 pass
	TimeEcc       time.Duration `json:"time_ecc_ns"`    // eccentricity BFS traversals (incl. 2-sweep)
	TimeWinnow    time.Duration `json:"time_winnow_ns"` // Winnow's distance scans (no traversal)
	TimeChain     time.Duration `json:"time_chain_ns"`
	TimeEliminate time.Duration `json:"time_eliminate_ns"`
	TimeTotal     time.Duration `json:"time_total_ns"`
}

// BFSTraversals returns the paper's Table 3 metric: eccentricity BFS plus
// one per Winnow call, as the paper counts its partial-BFS Winnow.
func (s *Stats) BFSTraversals() int64 { return s.EccBFS + s.WinnowCalls }

// PctWinnow returns the percentage of vertices removed by Winnow (Table 4).
func (s *Stats) PctWinnow() float64 { return pct(s.RemovedWinnow, s.Vertices) }

// PctEliminate returns the percentage removed by Eliminate (Table 4).
func (s *Stats) PctEliminate() float64 { return pct(s.RemovedEliminate, s.Vertices) }

// PctChain returns the percentage removed by Chain Processing (Table 4).
func (s *Stats) PctChain() float64 { return pct(s.RemovedChain, s.Vertices) }

// PctDegree0 returns the percentage of isolated vertices (Table 4).
func (s *Stats) PctDegree0() float64 { return pct(s.RemovedDegree0, s.Vertices) }

// PctComputed returns the percentage of vertices whose eccentricity had to
// be computed explicitly.
func (s *Stats) PctComputed() float64 { return pct(s.Computed, s.Vertices) }

// TimeOther returns total minus the accounted stages (Figure 8's "other").
func (s *Stats) TimeOther() time.Duration {
	other := s.TimeTotal - s.TimeInit - s.TimeEcc - s.TimeWinnow - s.TimeChain - s.TimeEliminate
	if other < 0 {
		other = 0
	}
	return other
}

func pct(count int64, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(count) / float64(total)
}

// String renders a compact multi-metric summary.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"bfs=%d (ecc=%d winnow=%d) elim-calls=%d dir-switches=%d removed: winnow=%.2f%% elim=%.2f%% chain=%.2f%% deg0=%.2f%% computed=%.2f%% total=%v",
		s.BFSTraversals(), s.EccBFS, s.WinnowCalls, s.EliminateCalls, s.DirSwitches,
		s.PctWinnow(), s.PctEliminate(), s.PctChain(), s.PctDegree0(), s.PctComputed(),
		s.TimeTotal.Round(time.Microsecond))
}

// Result is the outcome of a Diameter computation.
type Result struct {
	// Diameter is the largest eccentricity found over all connected
	// components — the paper's "CC diameter" (Table 1). For a connected
	// graph this is the exact graph diameter.
	Diameter int32 `json:"diameter"`
	// Infinite reports that the input was disconnected (two or more
	// components, counting isolated vertices), in which case the true
	// diameter is infinite; Diameter then still holds the largest
	// component-internal eccentricity, matching the paper's output.
	Infinite bool `json:"infinite"`
	// Cancelled reports that the run was cut short — its context was
	// cancelled or a deadline (Options.Timeout, or a deadline on the
	// caller's context) expired before completion. Diameter is then only
	// a lower bound, and Infinite is only meaningful if the first 2-sweep
	// traversal completed. TimedOut additionally distinguishes deadline
	// causes: it is set exactly when Cancelled is set and the context's
	// cause is context.DeadlineExceeded, mirroring the paper's "T/O"
	// entries.
	Cancelled bool `json:"cancelled"`
	// TimedOut reports that a deadline expired (see Cancelled); Diameter
	// is then only a lower bound.
	TimedOut bool `json:"timed_out"`
	// Resumed reports that the run restored a validated checkpoint and
	// continued from it instead of starting fresh; Stats then includes
	// the counters accumulated before the snapshot. ResumeError carries
	// the reason a requested resume was rejected (missing file, corrupt
	// snapshot, graph mismatch) — the run then completed as a fresh
	// solve, so the result is still exact.
	Resumed     bool   `json:"resumed"`
	ResumeError string `json:"resume_error,omitempty"`
	// Upper is the best proven diameter upper bound at exit — the other
	// edge of the anytime corridor [Diameter, Upper]. An exact completed
	// run reports Upper == Diameter; an ε-stopped, approximate, or
	// cancelled run reports the tightest cap established (n−1 at worst
	// once any traversal ran). The truth always satisfies
	// Diameter ≤ true ≤ Upper, where "true" is the largest
	// component-internal eccentricity (the CC diameter) — for connected
	// graphs, the graph diameter itself.
	Upper int32 `json:"upper"`
	// Gap is Upper − Diameter: 0 exactly when the answer is exact.
	Gap int32 `json:"gap"`
	// Approximate reports that the run ended with an open corridor
	// (Gap > 0) — because of Options.Epsilon, approximation mode, or
	// cancellation. An ε or approx run whose corridor collapsed to gap 0
	// proved the exact answer and reports Approximate=false.
	Approximate bool `json:"approximate"`
	// WitnessA and WitnessB are a vertex pair realizing the diameter:
	// ecc(WitnessA) = Diameter and d(WitnessA, WitnessB) = Diameter.
	// Both are NoVertex (MaxUint32) only for graphs with no edges.
	WitnessA uint32 `json:"witness_a"`
	WitnessB uint32 `json:"witness_b"`
	// Stats holds the evaluation metrics for this run.
	Stats Stats `json:"stats"`
}
