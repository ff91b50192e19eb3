package obs_test

import (
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// A finished solve, traced or not, gives /metrics live solver values.
	res := core.Diameter(traceGraph(), core.Options{Workers: 1})

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	ms := parseProm(t, body)
	if ms["fdiam_bfs_traversals_total"].value() < res.Stats.BFSTraversals() {
		t.Errorf("fdiam_bfs_traversals_total = %d, want at least this solve's %d",
			ms["fdiam_bfs_traversals_total"].value(), res.Stats.BFSTraversals())
	}

	// No process-wide current run is served: progress is per run.
	if code, _ := get(t, base+"/progress"); code != http.StatusNotFound {
		t.Errorf("/progress status %d, want 404", code)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("%s status %d, want 200", path, code)
		}
	}
}

// TestLifecycleGoroutinesJoined checks that the package's background
// goroutines exit once stopped: LogProgress's ticker, the runtime sampler
// and the introspection server's accept loop. The goroutine count must
// fall back to its value before any of them started.
func TestLifecycleGoroutinesJoined(t *testing.T) {
	base := runtime.NumGoroutine()

	run := obs.NewRun(obs.Config{})
	var buf syncBuffer
	stopProgress := run.LogProgress(&buf, time.Millisecond)
	stopSampler := obs.StartRuntimeSampler(obs.NewRegistry(), time.Millisecond)
	srv, err := obs.Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for deadline := time.Now().Add(2 * time.Second); buf.Len() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("LogProgress never wrote a line")
		}
		time.Sleep(time.Millisecond)
	}

	stopProgress()
	stopSampler()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after stop, %d before start:\n%s",
				runtime.NumGoroutine(), base, stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
