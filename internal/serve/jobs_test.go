package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fdiam/internal/gen"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

func postJob(t *testing.T, url, query string, body []byte) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(url+"/jobs"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return resp, out
}

func pollJob(t *testing.T, url, id string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func waitJobDone(t *testing.T, url, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, out := pollJob(t, url, id)
		if code == http.StatusOK && out.State == jobDone {
			return out
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached done", id)
	return jobResponse{}
}

func TestJobSubmitPollComplete(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 150)
	sum := sha256.Sum256(body)
	wantID := hex.EncodeToString(sum[:])

	resp, job := postJob(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if job.JobID != wantID || job.State != jobRunning {
		t.Fatalf("submit = %+v; want id %s running", job, wantID)
	}
	done := waitJobDone(t, ts.URL, job.JobID)
	if done.Result == nil || done.Result.Diameter != 149 {
		t.Fatalf("done job result = %+v, want diameter 149", done.Result)
	}
	if r := done.Result; r.ElapsedNS <= 0 || r.ResultCacheHit || r.GraphCacheHit {
		t.Fatalf("solved job reports elapsed_ns %d, result_cache_hit %v, graph_cache_hit %v; want > 0, false, false",
			r.ElapsedNS, r.ResultCacheHit, r.GraphCacheHit)
	}
	if reg.Counter("fdiamd_jobs_submitted_total", "").Value() != 1 ||
		reg.Counter("fdiamd_jobs_completed_total", "").Value() != 1 {
		t.Error("job counters did not record the lifecycle")
	}

	// Resubmitting a finished graph answers instantly from the result
	// cache with 200.
	resp2, job2 := postJob(t, ts.URL, "", body)
	if resp2.StatusCode != http.StatusOK || job2.State != jobDone || job2.Result == nil {
		t.Fatalf("resubmit = %d %+v; want immediate done", resp2.StatusCode, job2)
	}
	if !job2.Result.ResultCacheHit {
		t.Fatalf("resubmit answered from the cache reports result_cache_hit false: %+v", job2.Result)
	}
}

func TestJobDuplicateSubmissionReturnsSameID(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1})
	body := pathGraphBytes(t, 3000)

	_, first := postJob(t, ts.URL, "", body)
	_, second := postJob(t, ts.URL, "", body)
	if first.JobID != second.JobID {
		t.Fatalf("duplicate submission minted a second job: %s vs %s", first.JobID, second.JobID)
	}
	waitJobDone(t, ts.URL, first.JobID)
}

// TestJobExactNotAnsweredByApproxJob: jobs are keyed by graph content
// alone, so a finished approximate job must not answer a later exact
// submission for the same graph, and a running one with other parameters
// is refused rather than handed out.
func TestJobExactNotAnsweredByApproxJob(t *testing.T) {
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, gen.Grid2D(40, 40)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	for _, query := range []string{"?mode=approx&sweeps=1", "?epsilon=60"} {
		t.Run(query, func(t *testing.T) {
			s, ts, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1})
			// Hold the only slot so the approximate job stays running.
			s.slots <- struct{}{}
			if resp, _ := postJob(t, ts.URL, query, body); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("approximate submit: status %d, want 202", resp.StatusCode)
			}
			if resp, _ := postJob(t, ts.URL, "", body); resp.StatusCode != http.StatusConflict {
				t.Fatalf("exact submit while the approximate job runs: status %d, want 409", resp.StatusCode)
			}
			<-s.slots
			approx := waitJobDone(t, ts.URL, jobKey(body))
			if r := approx.Result; r == nil || !r.Approximate {
				t.Fatalf("approximate job result = %+v, want an open corridor", r)
			}

			resp, job := postJob(t, ts.URL, "", body)
			if resp.StatusCode != http.StatusAccepted || job.State != jobRunning {
				t.Fatalf("exact submit after the approximate job: %d %+v, want 202 running", resp.StatusCode, job)
			}
			done := waitJobDone(t, ts.URL, job.JobID)
			if r := done.Result; r == nil || r.Approximate || r.Diameter != 78 || r.Upper != 78 {
				t.Fatalf("exact job result = %+v, want exact diameter 78", r)
			}
		})
	}
}

func TestJobUnknownAndInvalidIDs(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	if code, out := pollJob(t, ts.URL, "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"); code != http.StatusNotFound || out.State != jobUnknown {
		t.Errorf("unknown job: %d %+v, want 404 unknown", code, out)
	}
	if code, _ := pollJob(t, ts.URL, "not-a-key"); code != http.StatusBadRequest {
		t.Errorf("invalid job id: %d, want 400", code)
	}
}

func jobKey(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

func TestJobBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 10)

	// fdiamd has no webhooks; a client that asks for one must hear so rather
	// than wait for a callback that never comes.
	hook, err := http.Post(ts.URL+"/jobs?webhook=http://127.0.0.1:9/hook", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(hook.Body)
	hook.Body.Close()
	if hook.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "webhook: not supported; poll GET /jobs/{id}") {
		t.Errorf("?webhook=: %d %q, want 400 naming polling", hook.StatusCode, msg)
	}
	// Streams and traces exist only on /diameter; a job cannot deliver them.
	for _, query := range []string{"?stream=bounds", "?trace=1"} {
		if resp, _ := postJob(t, ts.URL, query, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", query, resp.StatusCode)
		}
	}
	if resp, _ := postJob(t, ts.URL, "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs: %d, want 405", r.StatusCode)
	}
}

func TestJobQueueFullRejectsWithRetryAfter(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1})
	// Saturate admission directly, as TestQueueFullRejects does.
	s.admitted.Add(2)
	defer s.admitted.Add(-2)

	resp, _ := postJob(t, ts.URL, "", pathGraphBytes(t, 10))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
}

// TestJobAdoptionAfterRestart is the crash-recovery contract: a job
// submitted to a server that dies before finishing is completed by the
// next boot's orphan resume, and GET /jobs/{id} on the new process reports
// it done — no job table survived, only the checkpoint directory with the
// graph copy persisted at submit time.
func TestJobAdoptionAfterRestart(t *testing.T) {
	ckDir := t.TempDir()
	body := pathGraphBytes(t, 400)
	id := jobKey(body)

	s1, ts1, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, CheckpointDir: ckDir})
	// Occupy the only solve slot so the job is accepted (graph copy
	// persisted) but deterministically never starts before the "crash".
	s1.slots <- struct{}{}
	if resp, _ := postJob(t, ts1.URL, "", body); resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	if !fileExists(filepath.Join(ckDir, id, graphFileName)) {
		t.Fatal("the dead server did not leave the job's graph copy behind")
	}

	// Boot a fresh process over the same checkpoint dir: before adoption
	// the job polls as running (the directory exists); after ResumeOrphans
	// it polls as done.
	s2, ts2, _ := newTestServer(t, Config{Workers: 1, CheckpointDir: ckDir})
	if code, out := pollJob(t, ts2.URL, id); code != http.StatusOK || out.State != jobRunning {
		t.Fatalf("pre-adoption poll = %d %+v, want running (checkpoint dir present)", code, out)
	}
	if n := s2.ResumeOrphans(context.Background()); n != 1 {
		t.Fatalf("ResumeOrphans = %d, want 1", n)
	}
	done := waitJobDone(t, ts2.URL, id)
	if done.Result == nil || done.Result.Diameter != 399 {
		t.Fatalf("adopted job result = %+v, want diameter 399", done.Result)
	}
}

// TestSolverCountersCountUntracedSolves: a plain POST /diameter and a
// POST /jobs solve both run with no trace attached, and each still adds
// exactly its own BFS traversals to fdiam_bfs_traversals_total.
func TestSolverCountersCountUntracedSolves(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	traversals := obs.Default().Counter("fdiam_bfs_traversals_total", "")

	before := traversals.Value()
	resp, out := postGraph(t, ts, "", gridGraphBytes(t))
	if resp.StatusCode != http.StatusOK || out.Stats == nil {
		t.Fatalf("/diameter: status %d, stats %v", resp.StatusCode, out.Stats)
	}
	if got, want := traversals.Value()-before, out.Stats.BFSTraversals(); got != want || want == 0 {
		t.Errorf("/diameter raised the counter by %d, want its stats' %d", got, want)
	}

	before = traversals.Value()
	resp, job := postJob(t, ts.URL, "", pathGraphBytes(t, 150))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	done := waitJobDone(t, ts.URL, job.JobID)
	if done.Result == nil || done.Result.Stats == nil {
		t.Fatalf("job result without stats: %+v", done)
	}
	if got, want := traversals.Value()-before, done.Result.Stats.BFSTraversals(); got != want || want == 0 {
		t.Errorf("POST /jobs raised the counter by %d, want its stats' %d", got, want)
	}
}
