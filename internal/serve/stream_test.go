package serve

// SSE streaming tests: bound-corridor monotonicity, exact termination,
// cached-result streaming, and a clean close on client disconnect.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fdiam/internal/obs"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events from an SSE body until EOF or maxEvents.
func readSSE(t *testing.T, r io.Reader, maxEvents int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
			if maxEvents > 0 && len(out) >= maxEvents {
				return out
			}
		}
	}
	return out
}

func decodeBound(t *testing.T, ev sseEvent) obs.BoundEvent {
	t.Helper()
	var b obs.BoundEvent
	if err := json.Unmarshal([]byte(ev.data), &b); err != nil {
		t.Fatalf("bound event %q: %v", ev.data, err)
	}
	return b
}

func TestStreamBoundsSolveMonotoneAndExact(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 500)

	resp, err := ts.Client().Post(ts.URL+"/diameter?stream=bounds", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("streamed response missing X-Request-ID")
	}

	events := readSSE(t, resp.Body, 0)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least a bound and a result", len(events))
	}
	last := events[len(events)-1]
	if last.name != sseEventResult {
		t.Fatalf("terminal event %q, want %q", last.name, sseEventResult)
	}
	var res response
	if err := json.Unmarshal([]byte(last.data), &res); err != nil {
		t.Fatalf("result event: %v", err)
	}
	if res.Diameter != 499 || res.Cancelled || res.TimedOut {
		t.Fatalf("streamed result: %+v", res)
	}
	if res.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("result request_id %q != header %q", res.RequestID, resp.Header.Get("X-Request-ID"))
	}

	// Bound corridor: lb never decreases, ub (once known) never increases,
	// lb <= ub throughout, and the corridor collapses onto the exact answer.
	var bounds []obs.BoundEvent
	for _, ev := range events[:len(events)-1] {
		if ev.name != sseEventBound {
			t.Fatalf("unexpected event %q before the result", ev.name)
		}
		bounds = append(bounds, decodeBound(t, ev))
	}
	if len(bounds) == 0 {
		t.Fatal("no bound events before the result")
	}
	lb, ub := int64(-1), int64(-1)
	for i, b := range bounds {
		if b.LB < lb {
			t.Fatalf("bound %d: lb regressed %d -> %d", i, lb, b.LB)
		}
		if b.UB >= 0 {
			if ub >= 0 && b.UB > ub {
				t.Fatalf("bound %d: ub loosened %d -> %d", i, ub, b.UB)
			}
			if b.LB > b.UB {
				t.Fatalf("bound %d: corridor inverted lb=%d > ub=%d", i, b.LB, b.UB)
			}
			ub = b.UB
		}
		lb = b.LB
	}
	final := bounds[len(bounds)-1]
	if final.LB != int64(res.Diameter) || final.UB != int64(res.Diameter) {
		t.Fatalf("final corridor [%d,%d] did not collapse to diameter %d", final.LB, final.UB, res.Diameter)
	}
}

func TestStreamBoundsCachedResult(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	body := pathGraphBytes(t, 100)
	if resp, _ := postGraph(t, ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up solve: status %d", resp.StatusCode)
	}

	resp, err := ts.Client().Post(ts.URL+"/diameter?stream=bounds", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 0)
	if len(events) != 2 {
		t.Fatalf("cached stream: %d events, want exactly [bound, result]", len(events))
	}
	b := decodeBound(t, events[0])
	if b.LB != 99 || b.UB != 99 {
		t.Fatalf("cached corridor [%d,%d], want collapsed [99,99]", b.LB, b.UB)
	}
	var res response
	if err := json.Unmarshal([]byte(events[1].data), &res); err != nil {
		t.Fatal(err)
	}
	if !res.ResultCacheHit || res.Diameter != 99 {
		t.Fatalf("cached streamed result: %+v", res)
	}
}

func TestStreamUnknownModeRejected(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Post(ts.URL+"/diameter?stream=levels", "application/octet-stream",
		bytes.NewReader(pathGraphBytes(t, 10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown stream mode: status %d, want 400", resp.StatusCode)
	}
}

func TestStreamClientDisconnectLeavesServerHealthy(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/diameter?stream=bounds", bytes.NewReader(pathGraphBytes(t, 1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event, then hang up mid-stream.
	readSSE(t, resp.Body, 1)
	cancel()
	resp.Body.Close()

	// The layered context cancels the abandoned solve; the server keeps
	// answering (a wedged handler would hold the solve slot forever).
	done := make(chan response, 1)
	go func() {
		_, out := postGraph(t, ts, "", pathGraphBytes(t, 50))
		done <- out
	}()
	select {
	case out := <-done:
		if out.Diameter != 49 {
			t.Fatalf("post-disconnect solve: %+v", out)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server wedged after client disconnect")
	}
}
