package serve

// Chaos-facing tests: injected faults (fault package), checkpoint directory
// lifecycle, orphan resume, and cache eviction racing live solves.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/core"
	"fdiam/internal/fault"
	"fdiam/internal/gen"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

func TestHandlerPanicFaultRecovered(t *testing.T) {
	defer fault.Reset()
	_, ts, reg := newTestServer(t, Config{Workers: 1})
	if err := fault.Configure("serve.handler_panic:times=1"); err != nil {
		t.Fatal(err)
	}
	resp, _ := postGraph(t, ts, "", pathGraphBytes(t, 10))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500", resp.StatusCode)
	}
	if reg.Counter("fdiamd_panics_total", "").Value() != 1 {
		t.Fatal("injected panic not counted")
	}
	// The point fired its once; the daemon keeps serving.
	if resp, out := postGraph(t, ts, "", pathGraphBytes(t, 10)); resp.StatusCode != http.StatusOK || out.Diameter != 9 {
		t.Fatalf("solve after injected panic: status %d, %+v", resp.StatusCode, out)
	}
}

func TestStagedReadRetriesTransientFailures(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.bin"), pathGraphBytes(t, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, reg := newTestServer(t, Config{Workers: 1, GraphDir: dir})

	// Two injected failures, then success: within the retry budget.
	if err := fault.Configure("serve.staged_read:times=2"); err != nil {
		t.Fatal(err)
	}
	resp, out := postGraph(t, ts, "?path=p.bin", nil)
	if resp.StatusCode != http.StatusOK || out.Diameter != 49 {
		t.Fatalf("retried staged read: status %d, %+v", resp.StatusCode, out)
	}
	if got := reg.Counter("fdiamd_staged_read_retries_total", "").Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}

	// Permanent failure exhausts the retries and surfaces a 500.
	if err := fault.Configure("serve.staged_read"); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postGraph(t, ts, "?path=p.bin", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("exhausted retries: status %d, want 500", resp.StatusCode)
	}
	if fired := fault.Register("serve.staged_read").Fired(); fired != stagedReadAttempts {
		t.Fatalf("point fired %d times, want %d (one per attempt)", fired, stagedReadAttempts)
	}
}

func TestSlowStageFaultDelaysButServes(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.bin"), pathGraphBytes(t, 20), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Workers: 1, GraphDir: dir})
	if err := fault.Configure("serve.slow_stage:times=1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, out := postGraph(t, ts, "?path=p.bin", nil)
	if resp.StatusCode != http.StatusOK || out.Diameter != 19 {
		t.Fatalf("slow stage: status %d, %+v", resp.StatusCode, out)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("slow_stage fired but request took only %v", elapsed)
	}
}

func TestCacheWriteFaultStillServes(t *testing.T) {
	defer fault.Reset()
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 30)
	if err := fault.Configure("serve.cache_write:times=1"); err != nil {
		t.Fatal(err)
	}
	resp, out := postGraph(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || out.Diameter != 29 {
		t.Fatalf("dropped cache write: status %d, %+v", resp.StatusCode, out)
	}
	// The publication was dropped, so the repeat request misses both caches
	// — and, with the point drained, publishes normally.
	resp, out = postGraph(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || out.ResultCacheHit || out.GraphCacheHit {
		t.Fatalf("after dropped write, caches should be cold: %+v", out)
	}
	if _, third := postGraph(t, ts, "", body); !third.ResultCacheHit {
		t.Fatalf("third request should hit the repopulated cache: %+v", third)
	}
}

func TestStagedFileTooLargeIs413(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), pathGraphBytes(t, 200), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Workers: 1, GraphDir: dir, MaxUploadBytes: 64})
	if resp, _ := postGraph(t, ts, "?path=big.bin", nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized staged file: status %d, want 413", resp.StatusCode)
	}
}

func TestCheckpointDirLifecycle(t *testing.T) {
	ckDir := t.TempDir()
	_, ts, _ := newTestServer(t, Config{Workers: 1, CheckpointDir: ckDir, CheckpointEvery: time.Millisecond})
	body := pathGraphBytes(t, 100)
	resp, out := postGraph(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || out.Diameter != 99 {
		t.Fatalf("checkpointed solve: status %d, %+v", resp.StatusCode, out)
	}
	// A completed solve retires its per-graph directory.
	sum := sha256.Sum256(body)
	if _, err := os.Stat(filepath.Join(ckDir, hex.EncodeToString(sum[:]))); !os.IsNotExist(err) {
		t.Fatalf("completed solve left its checkpoint dir: %v", err)
	}
}

// TestQueueFullLeavesNoCheckpoint: only an admitted solve persists its graph
// copy. A 429 that left one behind would poll as a running job that never
// started, and the next boot's ResumeOrphans would solve it.
func TestQueueFullLeavesNoCheckpoint(t *testing.T) {
	ckDir := t.TempDir()
	s, ts, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1, CheckpointDir: ckDir})
	s.admitted.Add(2) // saturate admission, as TestQueueFullRejects does
	defer s.admitted.Add(-2)

	body := pathGraphBytes(t, 50)
	if resp, _ := postGraph(t, ts, "", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", resp.StatusCode)
	}
	id := jobKey(body)
	if _, err := os.Stat(filepath.Join(ckDir, id)); !os.IsNotExist(err) {
		t.Fatalf("rejected request left a checkpoint directory: %v", err)
	}
	if code, out := pollJob(t, ts.URL, id); code != http.StatusNotFound || out.State != jobUnknown {
		t.Fatalf("poll after 429 = %d %+v, want 404 unknown", code, out)
	}
}

// orphanWithSnapshot interrupts a direct solver run to manufacture a genuine
// crash artifact — per-graph dir with the serialized graph and a mid-solve
// snapshot — retrying until the cancellation lands inside the main loop.
func orphanWithSnapshot(t *testing.T, ckDir, key string) bool {
	t.Helper()
	g := gen.Grid2D(120, 120)
	dir := filepath.Join(ckDir, key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, graphFileName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	delay := 2 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan core.Result, 1)
		go func() {
			done <- core.DiameterCtx(ctx, g, core.Options{
				Workers:    1,
				Checkpoint: core.CheckpointOptions{Dir: dir, Interval: 1},
			})
		}()
		time.Sleep(delay)
		cancel()
		res := <-done
		if res.Cancelled && fileExists(filepath.Join(dir, checkpoint.FileName)) {
			return true
		}
		if res.Cancelled {
			delay *= 2
		} else {
			delay /= 2
			if delay <= 0 {
				delay = time.Millisecond
			}
		}
	}
	return false
}

func TestResumeOrphans(t *testing.T) {
	ckDir := t.TempDir()

	// Orphan 1: graph copy with a real mid-solve snapshot (when the timing
	// gods allow); orphan 2: graph copy only — a crash before the first
	// snapshot; orphan 3: garbage dir from a crash mid-setup.
	withSnap := orphanWithSnapshot(t, ckDir, "orphan-snap")
	if err := os.MkdirAll(filepath.Join(ckDir, "orphan-fresh"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckDir, "orphan-fresh", graphFileName), pathGraphBytes(t, 80), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(ckDir, "orphan-junk"), 0o755); err != nil {
		t.Fatal(err)
	}

	s, _, reg := newTestServer(t, Config{Workers: 1, CheckpointDir: ckDir})
	ran := s.ResumeOrphans(context.Background())
	want := 1
	if withSnap {
		want = 2
	}
	if ran != want {
		t.Fatalf("ResumeOrphans ran %d solves, want %d", ran, want)
	}
	if withSnap && reg.Counter("fdiamd_resumes_total", "").Value() != 1 {
		t.Fatal("snapshot orphan did not count as a resume")
	}
	// Orphans wait for the same slot pool as request solves, and are
	// accounted for the same way.
	if waits := reg.Histogram("fdiamd_queue_wait_seconds", "", obs.HistogramOpts{}).Count(); waits != int64(ran) {
		t.Fatalf("queue-wait histogram counted %d waits, want %d (one per orphan solve)", waits, ran)
	}
	// Finished orphans retire their directories; the junk dir is swept too.
	left, err := os.ReadDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("checkpoint dir not empty after resume: %v", left)
	}
	// The fresh-orphan result is cached under its directory key.
	if _, ok := s.results.get("orphan-fresh"); !ok {
		t.Fatal("orphan result not cached")
	}
}

// TestEvictionUnderLoad races the graph-cache LRU against live solves: a
// cache budget of one graph means every admission evicts the entry some
// other in-flight request may still be solving. Run under -race (CI does)
// this pins that eviction only unlinks cache entries and never frees state
// a solver still reads.
func TestEvictionUnderLoad(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{
		Workers:         1,
		MaxConcurrent:   4,
		MaxQueue:        64,
		GraphCacheBytes: 1, // oversized-entry rule admits one graph, every add evicts
	})
	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		n := 40 + 10*c // distinct graphs → distinct cache keys
		go func() {
			defer wg.Done()
			body := pathGraphBytes(t, n)
			for r := 0; r < rounds; r++ {
				resp, err := ts.Client().Post(ts.URL+"/diameter", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				var out response
				if resp.StatusCode == http.StatusOK {
					if derr := jsonDecode(resp, &out); derr != nil {
						errs <- derr
						continue
					}
					if out.Diameter != int32(n-1) {
						errs <- fmt.Errorf("path(%d): diameter %d, want %d", n, out.Diameter, n-1)
					}
				} else if resp.StatusCode != http.StatusTooManyRequests {
					resp.Body.Close()
					errs <- fmt.Errorf("path(%d): status %d", n, resp.StatusCode)
				} else {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func jsonDecode(resp *http.Response, out *response) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
