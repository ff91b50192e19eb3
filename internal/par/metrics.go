package par

import "fdiam/internal/obs"

// Process-wide parallel-for observability. The instruments live on the
// default obs registry: every BFS engine and the eccentricity oracle feed
// the same counters (the /metrics view is about the process, not one run).
// All updates happen once per parallel-for call, never per chunk, so the
// cost is a handful of atomic adds per BFS level.
var (
	// The "pool" in the name predates spawn-per-call dispatch; the
	// benchmark reads the counter under this name.
	cDispatches = obs.Default().Counter("fdiam_par_pool_dispatches_total",
		"Parallel-for calls dispatched onto a worker team (the caller plus workers-1 goroutines spawned for the call).")
	cInlineRuns = obs.Default().Counter("fdiam_par_inline_runs_total",
		"Parallel-for calls executed inline on the caller (workers <= 1 or n == 1).")
	gWorkersBusy = obs.Default().Gauge("fdiam_par_workers_busy",
		"Participants (caller included) inside dispatched parallel-for calls right now.")
	// hDispatchWait is disarmed by default (see obs.Registry.ArmHistograms):
	// the armed cost is one clock pair per dispatch, never per chunk.
	hDispatchWait = obs.Default().Histogram("fdiam_par_dispatch_wait_seconds",
		"Time the dispatching caller spends waiting for the spawned workers to finish a call after draining its own chunks.",
		obs.HistogramOpts{})
)
