package serve

// Failure-path tests: panicking handlers, staged-file limits, checkpoint
// directory lifecycle, orphan resume, and cache eviction racing live solves.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

// TestHandlerPanicFaultRecovered panics several requests at once, with an
// error value rather than a string, beside a live solve: each panic is its
// own counted 500 naming the value, and the solve and later requests are
// served as if nothing happened.
func TestHandlerPanicFaultRecovered(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1, MaxConcurrent: 2})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic(errors.New("invariant broken"))
	})
	const panics = 4
	var wg sync.WaitGroup
	errs := make(chan error, panics+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Post(ts.URL+"/diameter", "application/octet-stream", bytes.NewReader(pathGraphBytes(t, 300)))
		if err != nil {
			errs <- err
			return
		}
		var out response
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			errs <- fmt.Errorf("solve beside panics: status %d", resp.StatusCode)
		} else if err := jsonDecode(resp, &out); err != nil {
			errs <- err
		} else if out.Diameter != 299 {
			errs <- fmt.Errorf("solve beside panics: diameter %d, want 299", out.Diameter)
		}
	}()
	for i := 0; i < panics; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/boom")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
			} else if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("invariant broken")) {
				errs <- fmt.Errorf("panicking handler: status %d, body %q", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.Counter("fdiamd_panics_total", "").Value(); got != panics {
		t.Fatalf("panics counted %d, want %d", got, panics)
	}
	if resp, out := postGraph(t, ts, "", pathGraphBytes(t, 10)); resp.StatusCode != http.StatusOK || out.Diameter != 9 {
		t.Fatalf("solve after panics: status %d, %+v", resp.StatusCode, out)
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
	// A road stand-in: its main loop evaluates about 20 survivors, so a
	// cancel can land there (a grid's Winnow ball leaves almost none).
	g := gen.RoadNetwork(120, 120, 0.2, 7)
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
	// gods allow; otherwise just the graph copy); orphan 2: graph copy
	// only — a crash before the first snapshot; orphan 3: garbage dir from
	// a crash mid-setup.
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
	// Both graph copies are solved; only a snapshot makes one a resume.
	if ran != 2 {
		t.Fatalf("ResumeOrphans ran %d solves, want 2", ran)
	}
	var wantResumes int64
	if withSnap {
		wantResumes = 1
	}
	if got := reg.Counter("fdiamd_resumes_total", "").Value(); got != wantResumes {
		t.Fatalf("fdiamd_resumes_total = %d, want %d (snapshot present: %v)", got, wantResumes, withSnap)
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
