package par

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines for chunked parallel-for
// dispatch. The paper's OpenMP code amortizes thread startup across the
// whole run because `#pragma omp parallel` reuses one thread team; the
// original Go port instead spawned fresh goroutines at every BFS level,
// paying goroutine creation plus a WaitGroup barrier thousands of times per
// diameter computation. A Pool parks its workers on a condition variable
// between calls, so the per-level cost drops to a wake/park handshake:
// dispatch publishes a job under a generation counter, workers claim
// contiguous chunks off a shared atomic cursor, and the caller participates
// as worker 0 so a size-w job needs only w−1 parked goroutines.
//
// Workers are spawned lazily, on the first dispatch that needs them, and
// the physical worker count only grows (parked goroutines are cheap). Jobs
// are serialized: a nested or concurrent dispatch on the same Pool detects
// the busy pool and falls back to ForWorkerSpawn, so reentrancy can never
// deadlock a parked team.
//
// The zero value is not usable; create pools with NewPool.
type Pool struct {
	// jobMu serializes dispatched jobs. Dispatch uses TryLock: losers
	// (nested parallel-for from inside a job body, or two goroutines
	// sharing one pool) fall back to spawning fresh goroutines.
	jobMu sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond
	gen    uint64
	closed bool
	parked int // worker goroutines spawned so far
	cur    *poolJob
}

// poolJob is one dispatched parallel-for. Workers share it through the
// pool's cur pointer, published under mu.
type poolJob struct {
	n, chunk int
	max      int32 // participant limit (the requested worker count)
	body     func(worker, lo, hi int)
	cursor   int64 // atomic chunk cursor
	joined   int32 // atomic participant-id counter (caller holds id 0)
	acks     int32 // atomic count of parked workers yet to acknowledge
	done     chan struct{}
}

// NewPool creates an empty pool. Worker goroutines are spawned on demand by
// the first dispatch that needs them.
func NewPool() *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the number of parked worker goroutines plus one (the
// dispatching caller always participates).
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked + 1
}

// Close releases the pool's worker goroutines. It waits for an in-flight
// job to finish, is idempotent, and a closed pool remains usable: further
// dispatches fall back to spawning fresh goroutines.
func (p *Pool) Close() {
	p.jobMu.Lock()
	defer p.jobMu.Unlock()
	p.mu.Lock()
	if !p.closed {
		gWorkersParked.Add(int64(-p.parked))
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// For runs body(i) for every i in [0, n) on the pool. Semantics match the
// package-level For.
func (p *Pool) For(n, workers, chunk int, body func(i int)) {
	p.ForWorker(n, workers, chunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body(lo, hi) over disjoint chunks covering [0, n) on the
// pool. Semantics match the package-level ForRange.
func (p *Pool) ForRange(n, workers, chunk int, body func(lo, hi int)) {
	p.ForWorker(n, workers, chunk, func(_, lo, hi int) { body(lo, hi) })
}

// ForWorker runs body(worker, lo, hi) over disjoint chunks covering [0, n)
// with worker ids in [0, workers). workers <= 1 runs inline with id 0; a
// busy or closed pool falls back to ForWorkerSpawn.
func (p *Pool) ForWorker(n, workers, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		cInlineRuns.Inc()
		body(0, 0, n)
		return
	}
	workers, chunk = normalize(n, workers, chunk)
	if !p.jobMu.TryLock() {
		cSpawnFallbacks.Inc()
		ForWorkerSpawn(n, workers, chunk, body)
		return
	}
	defer p.jobMu.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		cSpawnFallbacks.Inc()
		ForWorkerSpawn(n, workers, chunk, body)
		return
	}
	// Grow the team to the requested width. New workers capture the
	// pre-dispatch generation, so they acknowledge the job published
	// below even if they first park after gen is bumped.
	for p.parked < workers-1 {
		p.parked++
		gWorkersParked.Add(1)
		go p.workerLoop(p.gen)
	}
	j := &poolJob{
		n: n, chunk: chunk, max: int32(workers), body: body,
		joined: 1, // the caller is participant 0
		acks:   int32(p.parked),
		done:   make(chan struct{}),
	}
	p.cur = j
	p.gen++
	p.cond.Broadcast()
	waiters := p.parked
	p.mu.Unlock()

	cPoolDispatches.Inc()
	gWorkersBusy.Add(int64(workers))
	runChunks(j, 0)
	if waiters > 0 {
		waitStart := hDispatchWait.StartTimer()
		<-j.done
		hDispatchWait.ObserveSince(waitStart)
	}
	// Every parked worker has acknowledged j, so none reads cur again
	// until the next generation. Dropping it lets body's captures (a BFS
	// engine whose cleanup holds this pool) be collected between jobs.
	p.mu.Lock()
	p.cur = nil
	p.mu.Unlock()
	gWorkersBusy.Add(int64(-workers))
}

// workerLoop parks on the pool's condition variable and acknowledges every
// published generation exactly once. Workers beyond a job's participant
// limit ack without touching the cursor.
func (p *Pool) workerLoop(seen uint64) {
	p.mu.Lock()
	for {
		for p.gen == seen && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		seen = p.gen
		j := p.cur
		p.mu.Unlock()
		if id := atomic.AddInt32(&j.joined, 1) - 1; id < j.max {
			runChunks(j, int(id))
		}
		if atomic.AddInt32(&j.acks, -1) == 0 {
			close(j.done)
		}
		p.mu.Lock()
	}
}

// runChunks drains the job's chunk cursor as the given participant.
//
//fdiam:hotpath
func runChunks(j *poolJob, id int) {
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

// ForWorkerSpawn is the non-pooled parallel-for: it spawns fresh goroutines
// for this one call, exactly like the original substrate. It is the
// fallback for nested or concurrent dispatch on a busy Pool and the
// reference point for benchmarks comparing spawn-per-call against the
// persistent team.
func ForWorkerSpawn(n, workers, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		body(0, 0, n)
		return
	}
	workers, chunk = normalize(n, workers, chunk)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(id, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// sharedPool is the process-wide pool behind the package-level For,
// ForRange, and ForWorker free functions. It is created on first parallel
// use and lives for the life of the process.
var (
	sharedOnce sync.Once
	shared     *Pool
)

func sharedPool() *Pool {
	sharedOnce.Do(func() { shared = NewPool() })
	return shared
}
