package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// checkCoverage runs a ForWorker call and verifies every index in [0, n) is
// visited exactly once with worker ids in [0, workers).
func checkCoverage(t *testing.T, n, workers, chunk int) {
	t.Helper()
	hits := make([]int32, n)
	var badID int32
	ForWorker(n, workers, chunk, func(worker, lo, hi int) {
		if worker < 0 || worker >= max(workers, 1) {
			atomic.AddInt32(&badID, 1)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if badID != 0 {
		t.Fatalf("n=%d workers=%d chunk=%d: %d chunks saw out-of-range worker ids", n, workers, chunk, badID)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("n=%d workers=%d chunk=%d: index %d hit %d times", n, workers, chunk, i, h)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1001, 4097} {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			for _, chunk := range []int{0, 1, 3, 64} {
				checkCoverage(t, n, workers, chunk)
			}
		}
	}
}

func TestForWorkerChunksCoverExactly(t *testing.T) {
	n := 557
	hits := make([]int32, n)
	ForWorker(n, 7, 13, func(_, lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	checkCoverage(t, 1000, 5, 11)
}

func TestForInlineWhenSingleWorker(t *testing.T) {
	// workers <= 1 must run on the calling goroutine: verify by writing
	// without atomics and relying on the race detector.
	n := 100
	sum := 0
	ForWorker(n, 1, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != n*(n-1)/2 {
		t.Fatalf("sum = %d", sum)
	}
	ForWorker(n, 0, 0, func(worker, lo, hi int) {
		if worker != 0 {
			t.Errorf("inline worker id = %d", worker)
		}
	})
}

func TestForPropertySum(t *testing.T) {
	f := func(n uint16, workers, chunk uint8) bool {
		nn := int(n % 2000)
		var sum int64
		ForWorker(nn, int(workers%16), int(chunk%50), func(_, lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			atomic.AddInt64(&sum, local)
		})
		return sum == int64(nn)*int64(nn-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// The TestPool* tests below cover one dispatched call's worker team (the
// caller plus the goroutines spawned for it), the unit that the
// fdiam_par_pool_dispatches_total counter counts.

func TestPoolNestedDispatch(t *testing.T) {
	// A parallel-for started from inside a running body owns its own
	// team, so it neither deadlocks nor disturbs the outer call's cursor.
	// Every (outer, inner) pair is covered exactly once.
	const outer, inner = 40, 30
	hits := make([]int32, outer*inner)
	ForWorker(outer, 4, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ForWorker(inner, 4, 1, func(_, jlo, jhi int) {
				for j := jlo; j < jhi; j++ {
					atomic.AddInt32(&hits[i*inner+j], 1)
				}
			})
		}
	})
	for idx, h := range hits {
		if h != 1 {
			t.Fatalf("pair (%d,%d) hit %d times", idx/inner, idx%inner, h)
		}
	}
}

func TestPoolConcurrentDispatch(t *testing.T) {
	// Several goroutines dispatching at once: each call's chunks must sum
	// to its own index space, never another call's.
	const goroutines, n = 4, 2000
	var wg sync.WaitGroup
	sums := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				var sum int64
				ForWorker(n, 3, 16, func(_, lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&sum, local)
				})
				if sum != int64(n)*int64(n-1)/2 {
					atomic.StoreInt64(&sums[g], sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, s := range sums {
		if s != 0 {
			t.Fatalf("goroutine %d saw wrong sum %d", g, s)
		}
	}
}

func TestPoolWorkersExceedN(t *testing.T) {
	// workers > n clamps to n participants; ids must stay below the clamp.
	const n, workers = 5, 64
	var perID [workers]int32
	hits := make([]int32, n)
	ForWorker(n, workers, 0, func(worker, lo, hi int) {
		atomic.AddInt32(&perID[worker], 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for id := n; id < workers; id++ {
		if perID[id] != 0 {
			t.Fatalf("worker id %d with only %d elements", id, n)
		}
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestPoolChunkClamping(t *testing.T) {
	// normalize picks ~64 chunks per worker clamped to [1, 4096] and clamps
	// workers to n. Checked directly, then through a dispatch that records
	// observed chunk widths.
	cases := []struct {
		n, workers, chunk   int
		wantWorkers, wantCh int
	}{
		{n: 100, workers: 200, chunk: 0, wantWorkers: 100, wantCh: 1},
		{n: 1 << 20, workers: 2, chunk: 0, wantWorkers: 2, wantCh: 4096},
		{n: 1024, workers: 4, chunk: 0, wantWorkers: 4, wantCh: 1024 / (4 * 64)},
		{n: 1000, workers: 3, chunk: 37, wantWorkers: 3, wantCh: 37},
	}
	for _, c := range cases {
		w, ch := normalize(c.n, c.workers, c.chunk)
		if w != c.wantWorkers || ch != c.wantCh {
			t.Errorf("normalize(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.n, c.workers, c.chunk, w, ch, c.wantWorkers, c.wantCh)
		}
	}

	n, chunk := 1000, 64
	var tooWide int32
	var total int64
	ForWorker(n, 4, chunk, func(_, lo, hi int) {
		if hi-lo > chunk {
			atomic.AddInt32(&tooWide, 1)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if tooWide != 0 {
		t.Fatalf("%d chunks wider than the requested %d", tooWide, chunk)
	}
	if total != int64(n) {
		t.Fatalf("chunks covered %d elements, want %d", total, n)
	}
}

func TestPoolWorkerBufferOwnership(t *testing.T) {
	// The BFS engine's usage pattern: per-worker output buffers indexed by
	// worker id, appended to without atomics. Distinct ids must never run
	// concurrently on the same buffer — the race detector enforces this.
	const n, workers = 10000, 4
	bufs := make([][]int, workers)
	for rep := 0; rep < 10; rep++ {
		for w := range bufs {
			bufs[w] = bufs[w][:0]
		}
		ForWorker(n, workers, 0, func(worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					bufs[worker] = append(bufs[worker], i)
				}
			}
		})
		got := 0
		for _, b := range bufs {
			got += len(b)
		}
		if want := (n + 2) / 3; got != want {
			t.Fatalf("rep %d: buffers hold %d elements, want %d", rep, got, want)
		}
	}
}

func TestPoolTrivialDispatches(t *testing.T) {
	ran := false
	ForWorker(0, 8, 0, func(_, _, _ int) { ran = true })
	if ran {
		t.Fatal("n=0 must not invoke the body")
	}
	// n == 1 and workers <= 1 run inline on the caller: non-atomic writes
	// below are race-detector-checked.
	calls := 0
	ForWorker(1, 8, 0, func(worker, lo, hi int) {
		calls++
		if worker != 0 || lo != 0 || hi != 1 {
			t.Errorf("inline call got (worker=%d, lo=%d, hi=%d)", worker, lo, hi)
		}
	})
	sum := 0
	ForWorker(100, 1, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if calls != 1 || sum != 4950 {
		t.Fatalf("calls=%d sum=%d", calls, sum)
	}
}
