package core

import "fdiam/internal/obs"

// hBatchSources records the per-batch source-count distribution of the
// MS-BFS batching layer; its count and sum are the batches and sources
// launched. Buckets 1..64 match the lane count; disarmed by default like
// every histogram (see obs.Registry.ArmHistograms).
var hBatchSources = obs.Default().Histogram("fdiam_msbfs_batch_sources",
	"sources per bit-parallel MS-BFS batch", obs.SizeOpts(6))

// Anytime-tier accounting: how often runs stop early with an open corridor
// and how wide the corridor was when they did, split by exit mode. Counters
// are always live; the histograms are disarmed by default like every other
// (obs.Registry.ArmHistograms). Cancelled runs are not counted here — they
// did not choose to stop.
var (
	cEarlyExits = obs.Default().Counter("fdiam_early_exits_total",
		"solver runs stopped by an anytime tier (ε-early-exit or approximation mode)")
	hEarlyGapEpsilon = obs.Default().HistogramLabels("fdiam_early_exit_gap",
		"ub − lb corridor width at early exit", obs.SizeOpts(8), "mode", "epsilon")
	hEarlyGapApprox = obs.Default().HistogramLabels("fdiam_early_exit_gap",
		"ub − lb corridor width at early exit", obs.SizeOpts(8), "mode", "approx")
)

// Work counters: each finished solve adds its own Stats work (a resumed
// solve only what it did after its snapshot), so they count every solve,
// traced or not.
var (
	cBFSTraversals = obs.Default().Counter("fdiam_bfs_traversals_total",
		"BFS traversals of finished solves as the paper's Table 3 counts them: eccentricity BFS plus one per Winnow call, though Winnow scans distances already computed (Stats.BFSTraversals)")
	cDirSwitches = obs.Default().Counter("fdiam_bfs_dir_switches_total",
		"direction switches (top-down <-> bottom-up) of finished solves")
	cBoundImprovements = obs.Default().Counter("fdiam_bound_improvements_total",
		"main-loop evaluations of finished solves that raised the diameter lower bound")
)
