// Package obs is the observability layer of the F-Diam system: structured
// run tracing (run → stage → traversal → level spans) with Chrome
// trace-event export, a per-run progress line and bound corridor, a
// process-wide counter/gauge registry with Prometheus text exposition, and
// a live /metrics + /debug/pprof HTTP endpoint.
//
// The paper's entire evaluation (Tables 3–4, Figure 8) is about where the
// work goes — BFS counts, per-stage removals, per-stage time — and
// bound-based diameter tools are best understood by watching the
// bound/active-set trajectory *during* a run. This package makes that
// trajectory observable without touching the algorithms' complexity: the
// solver and the BFS engine carry an optional *Run and every emission site
// is nil-guarded, so a nil tracer costs a pointer compare and nothing else
// (no allocations — enforced by testing.AllocsPerRun in the test suite).
//
// Dependency rule: obs imports only the standard library, so every other
// internal package (bfs, core, par, bench) may instrument itself freely.
package obs

import (
	"io"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindBegin opens a span. Spans are strictly nested (LIFO) per run:
	// all orchestration happens on one goroutine, matching the paper's
	// design of parallelizing inside each traversal rather than across.
	KindBegin Kind = iota
	// KindEnd closes the innermost open span.
	KindEnd
	// KindInstant is a point event (bound improvement, direction switch).
	KindInstant
	// KindComplete is a span with a known duration, emitted after the
	// fact (BFS levels — one event instead of a begin/end pair).
	KindComplete
)

// Arg is one integer annotation on an event. All quantities this system
// observes (frontier sizes, arc counts, bounds, vertex ids) are integral,
// which keeps the event model flat and the sinks allocation-light.
type Arg struct {
	Key string
	Val int64
}

// I builds an Arg.
func I(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event is one structured observation, timestamped relative to the run
// start. Cat is the span taxonomy ("run", "stage", "traversal", "level",
// "bound", "dir"); Name identifies the particular span or instant.
type Event struct {
	Kind Kind
	Cat  string
	Name string
	TS   time.Duration // since Run start
	Dur  time.Duration // KindComplete only
	Args []Arg
}

// Tracer is a sink for run events. Emit is only called with the run's
// mutex held, so implementations need no locking of their own; Close
// flushes and finalizes the sink's output.
type Tracer interface {
	Emit(e Event)
	Close() error
}

// Config configures a Run.
type Config struct {
	// ChromeTrace, when non-nil, receives a Chrome trace-event JSON
	// array (load in Perfetto or chrome://tracing).
	ChromeTrace io.Writer
}

// Run is one solve's observation handle. A nil *Run is the disabled
// tracer: every method is nil-safe and returns immediately, and the
// hot-path methods (the typed ones with scalar parameters) are
// allocation-free on that path. Create with NewRun and finalize with
// Finish.
//
// Each signal has one consumer: events go to the sinks (the Chrome
// trace), the bound corridor to its subscribers (fdiamd's
// ?stream=bounds), and the progress counters to Snapshot (the -progress
// stderr line). A Run owns no metrics: the solver adds its work to the
// process-wide counters itself, traced or not.
type Run struct {
	start time.Time

	mu    sync.Mutex
	sinks []Tracer
	// stack mirrors the open span names so End events carry the name
	// they close, and curTraversal names the open traversal span.
	stack        []spanRef
	curTraversal string

	prog   progressState
	bounds boundSubs
}

type spanRef struct {
	cat, name string
}

// NewRun creates a run and attaches the configured sinks.
func NewRun(cfg Config) *Run {
	r := &Run{start: time.Now()}
	if cfg.ChromeTrace != nil {
		r.sinks = append(r.sinks, NewChromeTracer(cfg.ChromeTrace))
	}
	r.prog.stage = "init"
	return r
}

// AddSink attaches an extra event sink (tests use it as a fake sink).
func (r *Run) AddSink(t Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, t)
	r.mu.Unlock()
}

// Finish marks the run done (stage "done", elapsed clock frozen) and
// closes every sink, which writes the Chrome trace footer and flushes the
// buffers. The first sink error is returned.
func (r *Run) Finish() error {
	if r == nil {
		return nil
	}
	r.prog.markDoneAt(time.Since(r.start))
	r.closeBoundSubs()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prog.stage = "done"
	var first error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.sinks = nil
	return first
}

// emit fans an event out to every sink. Callers must NOT hold r.mu.
func (r *Run) emit(e Event) {
	r.mu.Lock()
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// since returns the event timestamp for "now".
func (r *Run) since() time.Duration { return time.Since(r.start) }

// Begin opens a span of the given category and name. Spans must be closed
// in LIFO order by End. A "stage" span also sets the progress label until
// it closes. Callers on hot paths should nil-guard before building args;
// the scalar typed methods below need no guard.
func (r *Run) Begin(cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stack = append(r.stack, spanRef{cat, name})
	switch cat {
	case "traversal":
		r.curTraversal = name
	case "stage":
		r.prog.stage = name
	}
	e := Event{Kind: KindBegin, Cat: cat, Name: name, TS: r.since(), Args: args}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// End closes the innermost open span. cat and name are cross-checked in
// spirit only — the emitted event carries the *opened* span's identity, so
// a mismatched close cannot corrupt the trace nesting.
func (r *Run) End(cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n := len(r.stack); n > 0 {
		top := r.stack[n-1]
		r.stack = r.stack[:n-1]
		cat, name = top.cat, top.name
	}
	if cat == "stage" {
		// The label falls back to the enclosing stage (main-loop after
		// one of its Eliminates); the outermost stage keeps its name.
		for i := len(r.stack) - 1; i >= 0; i-- {
			if r.stack[i].cat == "stage" {
				r.prog.stage = r.stack[i].name
				break
			}
		}
	}
	e := Event{Kind: KindEnd, Cat: cat, Name: name, TS: r.since(), Args: args}
	for _, s := range r.sinks {
		s.Emit(e)
	}
	r.mu.Unlock()
}

// Instant emits a point event.
func (r *Run) Instant(cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindInstant, Cat: cat, Name: name, TS: r.since(), Args: args})
}

// Step identifies which BFS kernel expanded a level.
type Step uint8

const (
	// StepTopDownSerial is the one top-down kernel, serial at every
	// worker count.
	StepTopDownSerial Step = iota
	StepBottomUpSerial
	StepBottomUpParallel
	// StepMSPush, StepMSPullSerial and StepMSPullParallel are the
	// bit-parallel multi-source kernels: push scatters the active
	// frontier's bit words serially, pull gathers neighbor words over all
	// vertices, inline at Workers = 1 and across par.ForWorker's
	// goroutines otherwise.
	StepMSPush
	StepMSPullSerial
	StepMSPullParallel
)

func (s Step) String() string {
	switch s {
	case StepTopDownSerial:
		return "td-serial"
	case StepBottomUpSerial:
		return "bu-serial"
	case StepBottomUpParallel:
		return "bu-parallel"
	case StepMSPush:
		return "ms-push"
	case StepMSPullSerial:
		return "ms-pull-serial"
	case StepMSPullParallel:
		return "ms-pull-parallel"
	default:
		return "invalid"
	}
}

// dir returns the step's direction arg value (0 = top-down/push, 1 =
// bottom-up/pull); parallel returns its parallelism arg value (0 = serial,
// 1 = parallel).
func (s Step) dir() int64 {
	if s == StepBottomUpSerial || s == StepBottomUpParallel || s == StepMSPullSerial || s == StepMSPullParallel {
		return 1
	}
	return 0
}

func (s Step) parallel() int64 {
	if s == StepBottomUpParallel || s == StepMSPullParallel {
		return 1
	}
	return 0
}

//
// Typed hot-path methods. These take only scalar parameters so that a call
// through a nil *Run performs no allocation whatsoever — the BFS engine
// invokes them once per traversal and once per level.
//

// TraversalStart opens a traversal span. kind is "ecc" (full eccentricity
// BFS), "dist" (full BFS recording distances), or "partial" (bounded or
// multi-source partial BFS: Eliminate, region extension).
func (r *Run) TraversalStart(kind string, seeds int) {
	if r == nil {
		return
	}
	r.prog.traversals.Add(1)
	r.Begin("traversal", kind, I("seeds", int64(seeds)))
}

// TraversalEnd closes the open traversal span with its outcome: the number
// of completed levels (== the source eccentricity for a full BFS), vertices
// reached, and direction switches taken.
func (r *Run) TraversalEnd(levels int32, reached, switches int64) {
	if r == nil {
		return
	}
	r.End("traversal", r.curTraversal,
		I("levels", int64(levels)), I("reached", reached), I("switches", switches))
}

// LevelDone records one completed BFS level: which kernel ran, the new
// frontier's size, the input frontier's outgoing-arc count (the top-down
// work estimate; computed by the engine only when tracing is on), and the
// vertices still unvisited after the level. start is when the level began,
// so the level becomes a duration-carrying complete event.
func (r *Run) LevelDone(level int32, step Step, frontier int, frontierArcs int64, unvisited int, start time.Time) {
	if r == nil {
		return
	}
	ts := start.Sub(r.start)
	r.emit(Event{
		Kind: KindComplete, Cat: "level", Name: step.String(),
		TS: ts, Dur: time.Since(start),
		Args: []Arg{
			I("level", int64(level)),
			I("frontier", int64(frontier)),
			I("frontier_arcs", frontierArcs),
			I("unvisited", int64(unvisited)),
			I("bottom_up", step.dir()),
			I("parallel", step.parallel()),
		},
	})
}

// DirSwitch records a direction switch decided before expanding the given
// level (bottomUp reports the direction being switched *to*).
func (r *Run) DirSwitch(level int32, bottomUp bool) {
	if r == nil {
		return
	}
	var to int64
	if bottomUp {
		to = 1
	}
	r.emit(Event{Kind: KindInstant, Cat: "dir", Name: "switch", TS: r.since(),
		Args: []Arg{I("level", int64(level)), I("bottom_up", to)}})
}

// BoundImproved records a main-loop bound improvement: the eccentricity of
// source raised the diameter lower bound from old to new. The corridor
// itself travels through PublishBounds.
func (r *Run) BoundImproved(old, new int32, source uint32) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindInstant, Cat: "bound", Name: "improved", TS: r.since(),
		Args: []Arg{I("old", int64(old)), I("new", int64(new)), I("source", int64(source))}})
}

// BatchStart records the launch of one bit-parallel MS-BFS batch of the
// given source count. The "msbfs" traversal span that follows carries the
// per-level detail.
func (r *Run) BatchStart(sources int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindInstant, Cat: "batch", Name: "msbfs", TS: r.since(),
		Args: []Arg{I("sources", int64(sources))}})
}

// BatchDone records the commit outcome of an MS-BFS batch: how many of its
// sources were committed as exact eccentricities and how many were
// discarded because an earlier commit's pruning removed them first.
func (r *Run) BatchDone(committed, discarded int) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: KindInstant, Cat: "batch", Name: "commit", TS: r.since(),
		Args: []Arg{I("committed", int64(committed)), I("discarded", int64(discarded))}})
}

// SetVertices records the input size for the progress line.
func (r *Run) SetVertices(n int64) {
	if r == nil {
		return
	}
	r.prog.vertices.Store(n)
}

// SetActive records the remaining active-vertex count for the progress
// line.
func (r *Run) SetActive(a int64) {
	if r == nil {
		return
	}
	r.prog.active.Store(a)
}
