package obs_test

import (
	"io"
	"net/http"
	"testing"

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
