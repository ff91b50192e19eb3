package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// traceGraph is an input that exercises every solver stage: the grid gives
// multi-level traversals with direction switches, the caterpillar's legs
// trigger Chain Processing, and the lollipop tail gives Eliminate radius.
func traceGraph() *graph.Graph {
	return gen.Disjoint(gen.Grid2D(20, 20), gen.Caterpillar(30, 2))
}

// chromeEvent mirrors the exporter's wire format for decoding in tests.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  *float64         `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	S    string           `json:"s"`
	Args map[string]int64 `json:"args"`
}

// runTraced runs F-Diam on traceGraph with the Chrome sink attached and
// returns the decoded trace and the result.
func runTraced(t *testing.T, workers int) ([]chromeEvent, core.Result) {
	t.Helper()
	var chrome bytes.Buffer
	run := obs.NewRun(obs.Config{ChromeTrace: &chrome})
	res := core.Diameter(traceGraph(), core.Options{Workers: workers, Trace: run})
	if err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(chrome.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, chrome.String())
	}
	return evs, res
}

func TestChromeTraceNesting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		evs, res := runTraced(t, workers)
		if res.Diameter != 38 { // grid 20x20
			t.Fatalf("workers=%d: diameter = %d, want 38", workers, res.Diameter)
		}
		if len(evs) == 0 {
			t.Fatalf("workers=%d: empty trace", workers)
		}

		var stack []chromeEvent
		seen := map[string]bool{}
		top := func() *chromeEvent {
			if len(stack) == 0 {
				return nil
			}
			return &stack[len(stack)-1]
		}
		for i, e := range evs {
			if e.PID != 1 || e.TID != 1 {
				t.Fatalf("workers=%d: event %d on track %d/%d, want 1/1", workers, i, e.PID, e.TID)
			}
			seen[e.Cat] = true
			switch e.Ph {
			case "B":
				// Parent rules: run is outermost; stages nest in the
				// run or in another stage (eliminate inside chain and
				// main-loop); traversals only inside stages.
				p := top()
				switch e.Cat {
				case "run":
					if p != nil {
						t.Fatalf("workers=%d: run span nested inside %s/%s", workers, p.Cat, p.Name)
					}
				case "stage":
					if p == nil || (p.Cat != "run" && p.Cat != "stage") {
						t.Fatalf("workers=%d: stage %q parent = %+v, want run or stage", workers, e.Name, p)
					}
				case "traversal":
					if p == nil || p.Cat != "stage" {
						t.Fatalf("workers=%d: traversal %q parent = %+v, want stage", workers, e.Name, p)
					}
				default:
					t.Fatalf("workers=%d: unexpected span category %q", workers, e.Cat)
				}
				stack = append(stack, e)
			case "E":
				p := top()
				if p == nil {
					t.Fatalf("workers=%d: event %d closes an empty stack", workers, i)
				}
				if p.Cat != e.Cat || p.Name != e.Name {
					t.Fatalf("workers=%d: E %s/%s closes open span %s/%s",
						workers, e.Cat, e.Name, p.Cat, p.Name)
				}
				stack = stack[:len(stack)-1]
			case "X":
				if e.Cat != "level" {
					t.Fatalf("workers=%d: complete event with category %q, want level", workers, e.Cat)
				}
				if p := top(); p == nil || p.Cat != "traversal" {
					t.Fatalf("workers=%d: level event outside a traversal (top %+v)", workers, p)
				}
				if e.Dur == nil {
					t.Fatalf("workers=%d: level event without dur", workers)
				}
			case "i":
				if e.S != "t" {
					t.Fatalf("workers=%d: instant scope %q, want t", workers, e.S)
				}
			default:
				t.Fatalf("workers=%d: unknown phase %q", workers, e.Ph)
			}
		}
		if len(stack) != 0 {
			t.Fatalf("workers=%d: %d spans left open at end of trace", workers, len(stack))
		}
		for _, cat := range []string{"run", "stage", "traversal", "level"} {
			if !seen[cat] {
				t.Errorf("workers=%d: no %q events in trace", workers, cat)
			}
		}
	}
}

func TestChromeTraceStageNames(t *testing.T) {
	evs, _ := runTraced(t, 1)
	stages := map[string]bool{}
	for _, e := range evs {
		if e.Ph == "B" && e.Cat == "stage" {
			stages[e.Name] = true
		}
	}
	for _, want := range []string{"init", "2-sweep", "winnow", "chain", "eliminate", "main-loop"} {
		if !stages[want] {
			t.Errorf("no %q stage span; got %v", want, stages)
		}
	}
}

func TestEmptyTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewChromeTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("empty trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(evs) != 0 {
		t.Fatalf("empty trace decodes to %d events", len(evs))
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	run := obs.NewRun(obs.Config{})
	res := core.Diameter(traceGraph(), core.Options{Workers: 1, Trace: run})
	s := run.Snapshot()
	if s.Stage != "main-loop" {
		t.Errorf("pre-Finish stage = %q, want main-loop", s.Stage)
	}
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	s = run.Snapshot()
	if s.Stage != "done" {
		t.Errorf("post-Finish snapshot = %+v, want stage done", s)
	}
	if s.Bound != int64(res.Diameter) {
		t.Errorf("snapshot bound = %d, want diameter %d", s.Bound, res.Diameter)
	}
	if s.Vertices != int64(res.Stats.Vertices) {
		t.Errorf("snapshot vertices = %d, want %d", s.Vertices, res.Stats.Vertices)
	}
	if s.BFSTraversals == 0 {
		t.Errorf("snapshot has no traversal progress: %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Errorf("snapshot elapsed = %v, want > 0", s.Elapsed)
	}
	elapsed := s.Elapsed
	time.Sleep(5 * time.Millisecond)
	if s2 := run.Snapshot(); s2.Elapsed != elapsed {
		t.Errorf("elapsed not frozen after Finish: %v != %v", s2.Elapsed, elapsed)
	}

	var nilRun *obs.Run
	if s := nilRun.Snapshot(); s != (obs.Snapshot{}) {
		t.Errorf("nil run snapshot = %+v, want zero", s)
	}
}

// TestSnapshotConcurrentWithSolve reads the progress snapshot from another
// goroutine while a traced solve moves the stage label and counters, as
// the -progress logger does; run under -race.
func TestSnapshotConcurrentWithSolve(t *testing.T) {
	run := obs.NewRun(obs.Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := run.Snapshot(); s.Stage == "" {
					t.Error("snapshot without a stage label")
					return
				}
			}
		}
	}()
	res := core.Diameter(traceGraph(), core.Options{Workers: 2, Trace: run})
	close(stop)
	wg.Wait()
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := run.Snapshot().Bound; got != int64(res.Diameter) {
		t.Errorf("final snapshot bound = %d, want %d", got, res.Diameter)
	}
}

// TestStageLabelFollowsStageSpans: the progress label is the innermost
// open stage span, so an Eliminate inside the main loop hands the label
// back when it closes.
func TestStageLabelFollowsStageSpans(t *testing.T) {
	run := obs.NewRun(obs.Config{})
	steps := []struct {
		step func()
		want string
	}{
		{func() {}, "init"},
		{func() { run.Begin("stage", "main-loop") }, "main-loop"},
		{func() { run.Begin("stage", "eliminate") }, "eliminate"},
		{func() { run.TraversalStart("partial", 1) }, "eliminate"},
		{func() { run.TraversalEnd(1, 5, 0) }, "eliminate"},
		{func() { run.End("stage", "eliminate") }, "main-loop"},
		{func() { run.End("stage", "main-loop") }, "main-loop"},
		{func() { _ = run.Finish() }, "done"},
	}
	for i, st := range steps {
		st.step()
		if got := run.Snapshot().Stage; got != st.want {
			t.Fatalf("step %d: stage = %q, want %q", i, got, st.want)
		}
	}
}

func TestLogProgress(t *testing.T) {
	run := obs.NewRun(obs.Config{})
	run.Begin("stage", "main-loop")
	run.PublishBounds(42, -1, 0, 0)
	run.SetVertices(1000)
	run.SetActive(17)
	var buf syncBuffer
	stop := run.LogProgress(&buf, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "stage=main-loop") || !strings.Contains(out, "bound=42") ||
		!strings.Contains(out, "active=17/1000") {
		t.Errorf("progress line wrong: %q", out)
	}

	var nilRun *obs.Run
	nilRun.LogProgress(&buf, time.Millisecond)() // nil-safe, stop callable
}

// syncBuffer guards a bytes.Buffer for the LogProgress goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
