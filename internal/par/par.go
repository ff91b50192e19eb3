// Package par provides the small parallel runtime used by the BFS engine
// and the brute-force eccentricity oracle: a chunked parallel-for with
// dynamic load balancing.
//
// The design mirrors what the paper's OpenMP code gets from
// `#pragma omp parallel for schedule(dynamic, chunk)`: each worker
// repeatedly claims a contiguous chunk of the index space via an atomic
// counter, which balances irregular per-vertex work (skewed degrees)
// without per-element synchronization. Each call owns its team: it spawns
// workers−1 goroutines, runs as worker 0 itself, and waits for the rest,
// so nested and concurrent calls need no coordination (DESIGN.md §6).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default parallelism, the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// job is one parallel-for call, shared by its participants.
type job struct {
	n, chunk int
	body     func(worker, lo, hi int)
	cursor   int64 // atomic chunk cursor
	wg       sync.WaitGroup
}

// ForWorker runs body(worker, lo, hi) over disjoint chunks covering [0, n)
// with worker ids in [0, workers), so workers can own private output
// buffers; the same worker id may process many chunks. workers <= 1 or
// n == 1 runs inline on the caller with id 0. chunk <= 0 picks a chunk
// size that yields ~64 chunks per worker, clamped to [1, 4096].
func ForWorker(n, workers, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		cInlineRuns.Inc()
		body(0, 0, n)
		return
	}
	workers, chunk = normalize(n, workers, chunk)
	j := &job{n: n, chunk: chunk, body: body}
	cDispatches.Inc()
	gWorkersBusy.Add(int64(workers))
	j.wg.Add(workers - 1)
	for id := 1; id < workers; id++ {
		go func() {
			defer j.wg.Done()
			runChunks(j, id)
		}()
	}
	runChunks(j, 0)
	waitStart := hDispatchWait.StartTimer()
	j.wg.Wait()
	hDispatchWait.ObserveSince(waitStart)
	gWorkersBusy.Add(int64(-workers))
}

// runChunks drains the job's chunk cursor as the given participant.
//
//fdiam:hotpath
func runChunks(j *job, id int) {
	for {
		lo := int(atomic.AddInt64(&j.cursor, int64(j.chunk))) - j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.body(id, lo, hi)
	}
}

// normalize clamps the worker count to n and picks the default chunk size
// (~64 chunks per worker, clamped to [1, 4096]) when chunk <= 0.
func normalize(n, workers, chunk int) (int, int) {
	if workers > n {
		workers = n
	}
	if chunk <= 0 {
		chunk = n / (workers * 64)
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 4096 {
			chunk = 4096
		}
	}
	return workers, chunk
}
