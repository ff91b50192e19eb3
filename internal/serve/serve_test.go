package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func postGraph(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/diameter"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp, out
}

// pathEdgeList serializes gen.Path(n) in the fdiam binary format.
func pathGraphBytes(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteBinary(&buf, gen.Path(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDiameterEndpointAndCaches(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 100)

	resp, first := postGraph(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.Diameter != 99 || first.Cancelled || first.TimedOut {
		t.Fatalf("first solve: %+v", first)
	}
	if first.GraphCacheHit || first.ResultCacheHit {
		t.Fatalf("first request should miss both caches: %+v", first)
	}
	if first.Stats == nil || first.Stats.Vertices != 100 {
		t.Fatalf("stats missing or wrong: %+v", first.Stats)
	}

	resp, second := postGraph(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !second.ResultCacheHit || second.Diameter != 99 {
		t.Fatalf("second request should hit the result cache: %+v", second)
	}
	if second.GraphHash != first.GraphHash {
		t.Fatalf("hash changed between identical uploads: %s vs %s", first.GraphHash, second.GraphHash)
	}
	if hits := reg.Counter("fdiamd_result_cache_hits_total", "").Value(); hits != 1 {
		t.Fatalf("result cache hit counter = %d, want 1", hits)
	}
	if misses := reg.Counter("fdiamd_graph_cache_misses_total", "").Value(); misses != 1 {
		t.Fatalf("graph cache miss counter = %d, want 1", misses)
	}
}

func TestDiameterRequestValidation(t *testing.T) {
	cfg := Config{Workers: 1, MaxUploadBytes: 256}
	_, ts, _ := newTestServer(t, cfg)

	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/diameter")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /diameter: status %d, want 405", resp.StatusCode)
	}

	// Unparseable graph.
	if resp, _ := postGraph(t, ts, "", []byte("this is not a graph")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}

	// Empty body, no path.
	if resp, _ := postGraph(t, ts, "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}

	// Oversized upload.
	big := bytes.Repeat([]byte("0 1\n"), 200)
	if resp, _ := postGraph(t, ts, "", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Bad timeout parameter.
	if resp, _ := postGraph(t, ts, "?timeout=banana", []byte("0 1\n")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d, want 400", resp.StatusCode)
	}

	// Path request without a configured directory.
	if resp, _ := postGraph(t, ts, "?path=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path without dir: status %d, want 400", resp.StatusCode)
	}
}

func TestDiameterPathRequests(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "path100.bin"), pathGraphBytes(t, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Workers: 1, GraphDir: dir})

	resp, out := postGraph(t, ts, "?path=path100.bin", nil)
	if resp.StatusCode != http.StatusOK || out.Diameter != 99 {
		t.Fatalf("path request: status %d, %+v", resp.StatusCode, out)
	}

	// The same content uploaded directly hits the path request's cache
	// entry: keys are content hashes, not sources.
	if _, again := postGraph(t, ts, "", pathGraphBytes(t, 100)); !again.ResultCacheHit {
		t.Fatalf("upload after path request should hit the result cache: %+v", again)
	}

	if resp, _ := postGraph(t, ts, "?path=nope.bin", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing file: status %d, want 404", resp.StatusCode)
	}
	// A staged METIS file would be sniffed as an edge list and solved as
	// the wrong graph; it is refused before it is read.
	if err := graphio.WriteFile(filepath.Join(dir, "c.metis"), gen.Cycle(10)); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/diameter?path=c.metis", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "METIS") || !strings.Contains(string(msg), ".bin") {
		t.Fatalf("METIS file: status %d %q, want 400 naming METIS and the .bin conversion", resp.StatusCode, msg)
	}
	// Traversal outside the graph dir must be rejected by os.Root.
	if resp, _ := postGraph(t, ts, "?path=..%2Fsecret", nil); resp.StatusCode == http.StatusOK {
		t.Fatal("path traversal outside the graph dir was served")
	}
	// A directory is the client's mistake, not a server error.
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sub", "."} {
		if resp, _ := postGraph(t, ts, "?path="+name, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("directory %q: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestDiameterTimeoutParameter(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	// A 2M-vertex path takes far longer than 1ms; the response must come
	// back promptly with the timeout flags and must not be cached.
	body := pathGraphBytes(t, 1<<21)
	start := time.Now()
	resp, out := postGraph(t, ts, "?timeout=1ms", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.TimedOut || !out.Cancelled {
		t.Fatalf("timed-out solve: %+v (elapsed %v)", out, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("1ms timeout took %v end to end", elapsed)
	}
	if _, again := postGraph(t, ts, "?timeout=1ms", body); again.ResultCacheHit {
		t.Fatal("a timed-out result was served from the result cache")
	}
}

func TestMaxTimeoutCapsRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, MaxTimeout: time.Millisecond})
	// No timeout parameter at all: MaxTimeout still applies, so even an
	// unbounded request cannot occupy a slot forever.
	resp, out := postGraph(t, ts, "", pathGraphBytes(t, 1<<21))
	if resp.StatusCode != http.StatusOK || !out.TimedOut {
		t.Fatalf("uncapped request was not bounded by MaxTimeout: status %d, %+v", resp.StatusCode, out)
	}
}

func TestQueueFullRejects(t *testing.T) {
	// Racing real slow solves against a third upload is flaky (the solver
	// finishes multi-million-vertex paths in seconds), so saturate the
	// admission counter directly: the handler consults nothing else
	// before rejecting.
	s, ts, reg := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1})
	body := pathGraphBytes(t, 50)
	s.admitted.Add(2) // capacity = MaxConcurrent + MaxQueue = 2

	resp, err := ts.Client().Post(ts.URL+"/diameter", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if reg.Counter("fdiamd_rejected_total", "").Value() != 1 {
		t.Fatal("rejection not counted")
	}

	// Capacity freed: the same request is admitted and solved.
	s.admitted.Add(-2)
	if resp, out := postGraph(t, ts, "", body); resp.StatusCode != http.StatusOK || out.Diameter != 49 {
		t.Fatalf("post-saturation request: status %d, %+v", resp.StatusCode, out)
	}
}

func TestRetryAfterSecondsScalesWithQueue(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 2, MaxQueue: 20})
	// Idle server: the hint is ~1s (1 plus up to 50% jitter, so 1).
	if got := s.retryAfterSeconds(); got < 1 || got > 2 {
		t.Errorf("idle retryAfterSeconds = %d, want 1..2", got)
	}
	// 10 queued beyond the 2 running: 1 + 10/2 = 6 base, jittered up to 9.
	s.admitted.Add(12)
	defer s.admitted.Add(-12)
	for i := 0; i < 20; i++ {
		if got := s.retryAfterSeconds(); got < 6 || got > 9 {
			t.Fatalf("queued retryAfterSeconds = %d, want 6..9", got)
		}
	}
}

func TestShutdownDrainsInFlightSolves(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1})
	slow := pathGraphBytes(t, 1<<22)

	type slowResult struct {
		status int
		out    response
	}
	results := make(chan slowResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, out := postGraph(t, ts, "", slow)
			results <- slowResult{resp.StatusCode, out}
		}()
	}

	// Wait until one solve runs and one waits in the queue. The window is
	// generous: under -race with the rest of the package's tests sharing
	// the process, parsing two 4M-vertex request bodies can alone take
	// tens of seconds before admission is even reached.
	inflight := reg.Gauge("fdiamd_inflight_solves", "")
	queued := reg.Gauge("fdiamd_queued_solves", "")
	deadline := time.Now().Add(90 * time.Second)
	for inflight.Value() != 1 || queued.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("admission never settled: inflight=%d queued=%d", inflight.Value(), queued.Value())
		}
		time.Sleep(time.Millisecond)
	}

	// Graceful shutdown: the running solve is cancelled and still writes
	// its partial bound; the queued one either gets a slot (and is
	// immediately cancelled) or is turned away with 503.
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sdCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		switch r.status {
		case http.StatusOK:
			if !r.out.Cancelled {
				t.Fatalf("drained solve finished a 4M-vertex path suspiciously fast: %+v", r.out)
			}
			if r.out.Diameter < 0 {
				t.Fatalf("drained solve returned invalid bound: %+v", r.out)
			}
		case http.StatusServiceUnavailable:
			// queued request refused during drain
		default:
			t.Fatalf("drained request: status %d", r.status)
		}
	}
	if reg.Counter("fdiamd_solves_cancelled_total", "").Value() == 0 {
		t.Fatal("no solve recorded as cancelled during drain")
	}

	// Post-drain the server refuses work and reports unhealthy.
	hc, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hc.StatusCode)
	}
	if resp, _ := postGraph(t, ts, "", pathGraphBytes(t, 10)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve: status %d, want 503", resp.StatusCode)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Fatalf("500 body %q does not name the panic", buf.String())
	}
	if reg.Counter("fdiamd_panics_total", "").Value() != 1 {
		t.Fatal("panic not counted")
	}
	// The server stays serviceable after a recovered panic.
	if resp, out := postGraph(t, ts, "", pathGraphBytes(t, 10)); resp.StatusCode != http.StatusOK || out.Diameter != 9 {
		t.Fatalf("solve after panic: status %d, %+v", resp.StatusCode, out)
	}
}

func TestIntrospectionEndpointsMounted(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	// Progress is per request (?stream=bounds, GET /jobs/{id}); no
	// process-wide current run is served.
	for path, want := range map[string]int{
		"/metrics": http.StatusOK, "/healthz": http.StatusOK,
		"/progress": http.StatusNotFound, "/progress/stream": http.StatusNotFound,
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fdiamd_requests_total") {
		t.Fatal("/metrics does not expose the fdiamd counters")
	}
}

func TestGraphCacheEvictsByBytes(t *testing.T) {
	c := newGraphCache(graphWeight(gen.Path(100)) + graphWeight(gen.Path(200)))
	g1, g2, g3 := gen.Path(100), gen.Path(200), gen.Path(300)
	c.add("a", g1)
	c.add("b", g2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted while within budget")
	}
	// "a" is now most recently used; adding g3 must evict "b" first and,
	// since g3 alone still overflows with "a" present, "a" as well.
	c.add("c", g3)
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry c evicted")
	}
	// An entry larger than the whole budget is still admitted alone.
	huge := newGraphCache(1)
	huge.add("x", g3)
	if _, ok := huge.get("x"); !ok {
		t.Fatal("oversized entry not admitted")
	}
}

func TestResultCacheNeverStoresCancelled(t *testing.T) {
	c := newResultCache(2)
	c.add("k", coreResult(5, true, false))
	if _, ok := c.get("k"); ok {
		t.Fatal("cancelled result cached")
	}
	c.add("k", coreResult(5, false, true))
	if _, ok := c.get("k"); ok {
		t.Fatal("timed-out result cached")
	}
	c.add("k", coreResult(5, false, false))
	if res, ok := c.get("k"); !ok || res.Diameter != 5 {
		t.Fatalf("complete result not cached: %v %v", res, ok)
	}
	// Count bound.
	c.add("k2", coreResult(1, false, false))
	c.add("k3", coreResult(2, false, false))
	if _, ok := c.get("k"); ok {
		t.Fatal("LRU result not evicted at capacity")
	}
}

func coreResult(d int32, cancelled, timedOut bool) core.Result {
	return core.Result{Diameter: d, Cancelled: cancelled, TimedOut: timedOut}
}

// TestHeapFlatAcrossDistinctMisses posts 30 distinct exact misses,
// alternating edge-list text and binary CSR, to a daemon whose caches hold
// almost nothing. Every miss reads, parses and solves a graph of about
// 10k vertices; if the parser or the pipeline kept a body or its CSR
// alive, the live heap would grow by hundreds of KiB per miss. Between
// miss 10 and miss 30 it must stay within a fixed slack.
func TestHeapFlatAcrossDistinctMisses(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, GraphCacheBytes: 1, ResultCacheSize: 1})
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for i := range 30 {
		g := gen.Grid2D(100, 100+i)
		var body bytes.Buffer
		write := graphio.WriteEdgeList
		if i%2 == 1 {
			write = graphio.WriteBinary
		}
		if err := write(&body, g); err != nil {
			t.Fatal(err)
		}
		resp, out := postGraph(t, ts, "", body.Bytes())
		if resp.StatusCode != http.StatusOK || out.ResultCacheHit || out.Diameter != int32(100+i-1+99) {
			t.Fatalf("miss %d: status %d, %+v", i, resp.StatusCode, out)
		}
		if i == 9 {
			base = liveHeap()
		}
	}
	const slack = 2 << 20
	grown := int64(liveHeap()) - int64(base)
	if grown > slack {
		t.Fatalf("live heap grew %d bytes over 20 distinct misses (slack %d)", grown, slack)
	}
}

// TestServerGoroutinesJoined checks that every goroutine the server starts
// is joined once it shuts down: the plain solve, the streamed solve's
// worker, the async job's solve, the par workers under Workers=2, and the
// Shutdown bridge. The goroutine count must fall back to its value before
// the server existed.
func TestServerGoroutinesJoined(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	s, err := New(Config{Workers: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	if resp, out := postGraph(t, ts, "", pathGraphBytes(t, 100)); resp.StatusCode != http.StatusOK || out.Diameter != 99 {
		t.Fatalf("plain solve: status %d, %+v", resp.StatusCode, out)
	}

	resp, err := client.Post(ts.URL+"/diameter?stream=bounds", "application/octet-stream",
		bytes.NewReader(pathGraphBytes(t, 120)))
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1].name != "result" {
		t.Fatalf("streamed solve did not end in a result event: %+v", events)
	}

	resp, err = client.Post(ts.URL+"/jobs", "application/octet-stream", bytes.NewReader(pathGraphBytes(t, 150)))
	if err != nil {
		t.Fatal(err)
	}
	var job jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	resp.Body.Close()
	if done := waitJobDone(t, ts.URL, job.JobID); done.Result == nil || done.Result.Diameter != 149 {
		t.Fatalf("job result = %+v, want diameter 149", done.Result)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections() // waitJobDone polls through it

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, %d before the server started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
