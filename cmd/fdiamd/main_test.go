package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"fdiam/internal/gen"
	"fdiam/internal/graphio"
)

// syncBuffer lets the test poll daemon output while run() writes it from
// another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on http://(\S+)`)

// startDaemon runs the daemon on a free port and returns its base URL and
// a shutdown func that triggers the drain path and waits for exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errc <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	var url string
	for url == "" {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			url = "http://" + m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
	return url, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			return context.DeadlineExceeded
		}
	}
}

func TestDaemonServesAndShutsDownCleanly(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "grid.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteEdgeList(f, gen.Grid2D(6, 6)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	url, shutdown := startDaemon(t, "-graphs", dir, "-workers", "1")

	// Upload solve.
	var buf bytes.Buffer
	if err := graphio.WriteEdgeList(&buf, gen.Path(100)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/diameter", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Diameter       int32 `json:"diameter"`
		ResultCacheHit bool  `json:"result_cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Diameter != 99 {
		t.Fatalf("upload solve: status %d, %+v", resp.StatusCode, got)
	}

	// Pre-staged path solve.
	resp, err = http.Post(url+"/diameter?path=grid.txt", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Diameter != 10 {
		t.Fatalf("path solve: status %d, %+v", resp.StatusCode, got)
	}

	// Introspection is mounted.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Signal-style shutdown: run() must drain and return nil.
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	out := &syncBuffer{}
	if err := run(ctx, []string{"stray-arg"}, out); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := run(ctx, []string{"-peers", "x"}, out); err == nil {
		t.Fatal("retired -peers flag accepted")
	}
	if err := run(ctx, []string{"-graphs", "/nonexistent-dir-fdiamd-test"}, out); err == nil {
		t.Fatal("missing graph dir accepted")
	}
	if err := run(ctx, []string{"-addr", "256.256.256.256:99999"}, out); err == nil {
		t.Fatal("unusable listen address accepted")
	}
}
