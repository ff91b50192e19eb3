package serve

// Request-ID propagation and structured-log tests: every response — success,
// 429 reject, panic, staged-read failure — must carry X-Request-ID,
// and every log line of a request must be joinable on request_id.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fdiam/internal/obs"
)

func TestRequestIDMintedAndEchoed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	resp, out := postGraph(t, ts, "", pathGraphBytes(t, 20))
	id := resp.Header.Get("X-Request-ID")
	if !validRequestID(id) {
		t.Fatalf("minted request ID %q invalid", id)
	}
	if out.RequestID != id {
		t.Fatalf("body request_id %q != header %q", out.RequestID, id)
	}
}

func TestRequestIDClientSupplied(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	do := func(sent string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set("X-Request-ID", sent)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	if got := do("trace-abc.123"); got != "trace-abc.123" {
		t.Fatalf("valid client ID not echoed: got %q", got)
	}
	// Header/log injection material is replaced by a minted ID.
	if got := do("bad id\twith spaces"); got == "bad id\twith spaces" || !validRequestID(got) {
		t.Fatalf("invalid client ID not replaced: got %q", got)
	}
	if got := do(strings.Repeat("x", 200)); len(got) > 128 || !validRequestID(got) {
		t.Fatalf("oversized client ID not replaced: got %q", got)
	}
}

func TestRequestIDOn429(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1})
	s.admitted.Add(2) // saturate admission so the next request rejects
	defer s.admitted.Add(-2)
	resp, err := ts.Client().Post(ts.URL+"/diameter", "application/octet-stream",
		bytes.NewReader(pathGraphBytes(t, 10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if !validRequestID(resp.Header.Get("X-Request-ID")) {
		t.Fatal("429 response missing X-Request-ID")
	}
}

func TestRequestIDOnPanic(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Workers: 1})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	do := func(sent string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set("X-Request-ID", sent)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		return resp
	}
	if !validRequestID(do("").Header.Get("X-Request-ID")) {
		t.Fatal("panic 500 missing X-Request-ID")
	}
	if got := do("trace-panic.1").Header.Get("X-Request-ID"); got != "trace-panic.1" {
		t.Fatalf("panic 500 did not echo the client's request ID: got %q", got)
	}
}

func TestRequestIDOnStagedReadFailure(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1}) // no -graphs dir
	resp, err := ts.Client().Post(ts.URL+"/diameter?path=missing.bin", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 4 {
		t.Fatalf("status %d, want a 4xx", resp.StatusCode)
	}
	if !validRequestID(resp.Header.Get("X-Request-ID")) {
		t.Fatal("staged-read failure missing X-Request-ID")
	}
}

// syncBuffer makes a bytes.Buffer safe for the handler goroutines that
// write log lines while the test reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

func TestAccessAndSolverLogsJoinableOnRequestID(t *testing.T) {
	var logs syncBuffer
	lg, err := obs.NewLogger(&logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Workers: 1, Logger: lg})

	resp, _ := postGraph(t, ts, "", pathGraphBytes(t, 50))
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no request ID")
	}

	// Every line of the request — middleware access log and solver events
	// alike — must parse as JSON and carry the same request_id.
	var sawAccess, sawSolveDone, sawStage bool
	for _, line := range logs.Lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec[obs.KeyRequestID] != id {
			t.Fatalf("log line %q has request_id %v, want %q", line, rec[obs.KeyRequestID], id)
		}
		switch rec["msg"] {
		case "request":
			sawAccess = true
			if rec[obs.KeyRoute] != "diameter" || rec[obs.KeyStatus] != float64(200) {
				t.Fatalf("access line fields wrong: %q", line)
			}
		case "solve_done":
			sawSolveDone = true
			if rec[obs.KeyDiameter] != float64(49) || rec[obs.KeyOutcome] != "ok" {
				t.Fatalf("solve_done fields wrong: %q", line)
			}
		case "stage":
			sawStage = true
		}
	}
	if !sawAccess || !sawSolveDone || !sawStage {
		t.Fatalf("missing log lines: access=%v solve_done=%v stage=%v", sawAccess, sawSolveDone, sawStage)
	}
}
