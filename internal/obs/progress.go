package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// progressState is the live view of a run behind the progress line. The
// counters are atomics written by the solver through the Run setters and
// read concurrently by the -progress stderr logger; stage is guarded by
// the run's mutex, because Begin and End set it.
type progressState struct {
	stage      string
	vertices   atomic.Int64
	bound      atomic.Int64
	active     atomic.Int64
	traversals atomic.Int64
	doneAt     atomic.Int64 // ns-since-run-start when finished; 0 = running
}

func (p *progressState) markDoneAt(elapsed time.Duration) {
	// Preserve the first Finish; a second Finish is a no-op.
	p.doneAt.CompareAndSwap(0, int64(elapsed))
}

// Snapshot is one consistent-enough view of a live (or finished) run: the
// fields of its progress line. Field reads are individually atomic; the
// snapshot is advisory, not transactional.
type Snapshot struct {
	// Stage is the innermost solver stage span open ("init", "2-sweep",
	// "winnow", "chain", "eliminate", "main-loop", "approx"), or "done"
	// once the run finished.
	Stage string
	// Bound is the current diameter lower bound.
	Bound int64
	// ActiveVertices counts vertices still under consideration.
	ActiveVertices int64
	// Vertices is the input size.
	Vertices int64
	// BFSTraversals counts traversals issued so far (full + partial).
	BFSTraversals int64
	// Elapsed is the wall-clock time since the run started, frozen once
	// the run finishes.
	Elapsed time.Duration
}

// Snapshot captures the current progress of the run. Safe to call
// concurrently with the run; returns a zero Snapshot for a nil run.
func (r *Run) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	p := &r.prog
	s := Snapshot{
		Bound:          p.bound.Load(),
		ActiveVertices: p.active.Load(),
		Vertices:       p.vertices.Load(),
		BFSTraversals:  p.traversals.Load(),
	}
	r.mu.Lock()
	s.Stage = p.stage
	r.mu.Unlock()
	if done := p.doneAt.Load(); done != 0 {
		s.Elapsed = time.Duration(done)
	} else {
		s.Elapsed = time.Since(r.start)
	}
	return s
}

// Line renders the snapshot as the one-line status the -progress flag logs:
//
//	stage=main-loop bound=42 active=1234/100000 bfs=17 elapsed=12.3s
func (s Snapshot) Line() string {
	return fmt.Sprintf("stage=%s bound=%d active=%d/%d bfs=%d elapsed=%s",
		s.Stage, s.Bound, s.ActiveVertices, s.Vertices, s.BFSTraversals,
		s.Elapsed.Round(100*time.Millisecond))
}

// LogProgress starts a goroutine that writes one status line to w every
// interval until the returned stop function is called (idempotent) or the
// run finishes. The long-run window the paper's 2.5 h timeout regime needs:
// a glance at stderr shows whether the bound is still moving and how fast
// the active set is draining.
func (r *Run) LogProgress(w io.Writer, interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(w, "fdiam: %s\n", r.Snapshot().Line())
				if r.prog.doneAt.Load() != 0 {
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
