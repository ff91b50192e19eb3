// Package serve implements fdiamd's HTTP API: a diameter-as-a-service
// front end over core.DiameterCtx with a content-addressed graph cache, a
// result cache, bounded admission, per-request deadlines and graceful
// shutdown. DESIGN.md §9 documents the architecture.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

// Config sizes one Server. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// MaxConcurrent bounds simultaneously running solves. Each solve
	// saturates Workers cores, so this is a memory/CPU admission knob,
	// not an HTTP connection limit. Default 2.
	MaxConcurrent int

	// MaxQueue bounds solves waiting for a slot beyond the running ones.
	// A request arriving when MaxConcurrent+MaxQueue are already admitted
	// is rejected with 429 and a Retry-After hint instead of queuing
	// unboundedly. Default 8.
	MaxQueue int

	// GraphCacheBytes budgets the parsed-graph LRU (CSR resident size,
	// not upload size). Default 1 GiB.
	GraphCacheBytes int64

	// ResultCacheSize bounds the finished-result LRU (entries). Default
	// 4096.
	ResultCacheSize int

	// DefaultTimeout applies to requests that carry no timeout parameter;
	// zero means such requests run unbounded (until client disconnect or
	// shutdown).
	DefaultTimeout time.Duration

	// MaxTimeout caps the per-request timeout parameter; zero means no
	// cap.
	MaxTimeout time.Duration

	// MaxUploadBytes bounds the request body. Default 1 GiB.
	MaxUploadBytes int64

	// GraphDir, when set, allows `POST /diameter?path=name` to solve a
	// pre-staged graph file from this directory instead of uploading it.
	// Lookups go through os.Root, so path traversal outside the
	// directory is rejected by the kernel-backed API, not by string
	// checks.
	GraphDir string

	// CheckpointDir, when set, makes long solves crash-safe: every
	// admitted solve persists periodic snapshots under
	// <CheckpointDir>/<graph-sha256>/ next to a copy of the serialized
	// graph, and ResumeOrphans finishes whatever a crashed process left
	// behind. A completed solve retires its directory. Default off.
	CheckpointDir string

	// CheckpointEvery is the snapshot cadence for checkpointed solves
	// (time-based, honored at main-loop and BFS-level boundaries). Zero
	// uses the solver's default (10s).
	CheckpointEvery time.Duration

	// Workers is passed to the solver (0 = all CPUs). One solve already
	// parallelizes internally; deployments that prefer request throughput
	// over single-request latency set Workers low and MaxConcurrent high.
	Workers int

	// Registry receives the fdiamd_* metrics. nil selects obs.Default(),
	// so the daemon's /metrics endpoint exposes solver and serving
	// counters side by side.
	Registry *obs.Registry

	// Logger receives the daemon's structured log lines: the per-request
	// access log plus the request-scoped solver events, all joinable on
	// request_id. nil discards everything.
	Logger *slog.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 2
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 8
	}
	if out.GraphCacheBytes <= 0 {
		out.GraphCacheBytes = 1 << 30
	}
	if out.ResultCacheSize <= 0 {
		out.ResultCacheSize = 4096
	}
	if out.MaxUploadBytes <= 0 {
		out.MaxUploadBytes = 1 << 30
	}
	if out.Registry == nil {
		out.Registry = obs.Default()
	}
	return out
}

// Server is the fdiamd HTTP handler plus the lifecycle state behind it.
// Create with New, mount as an http.Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	baseCtx  context.Context
	cancel   context.CancelFunc
	inflight sync.WaitGroup
	slots    chan struct{}
	admitted atomic.Int64 // running + queued solves
	draining atomic.Bool
	graphDir *os.Root

	graphs  *graphCache
	results *resultCache
	mux     *http.ServeMux
	lg      *slog.Logger

	jobs *jobTable

	mRequests      *obs.Counter
	mRejected      *obs.Counter
	mGraphHits     *obs.Counter
	mGraphMisses   *obs.Counter
	mResultHits    *obs.Counter
	mPanics        *obs.Counter
	mCancelled     *obs.Counter
	mResumes       *obs.Counter
	mJobsSubmitted *obs.Counter
	mJobsCompleted *obs.Counter
	mJobsCancelled *obs.Counter
	gInflight      *obs.Gauge
	gQueued        *obs.Gauge
	gGraphBytes    *obs.Gauge
	hQueueWait     *obs.Histogram
}

// New builds a Server from cfg. It fails only when cfg.GraphDir is set
// but cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// baseCtx is the server-lifetime root, deliberately not a child of any
	// request ctx (see the solve-context layering below).
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		graphs:  newGraphCache(cfg.GraphCacheBytes),
		results: newResultCache(cfg.ResultCacheSize),
		mux:     http.NewServeMux(),
		jobs:    newJobTable(),
	}
	if cfg.GraphDir != "" {
		root, err := os.OpenRoot(cfg.GraphDir)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("graph dir: %w", err)
		}
		s.graphDir = root
	}
	if cfg.CheckpointDir != "" {
		// Durability was explicitly requested; an uncreatable directory is
		// a configuration error, not something to silently run without.
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			cancel()
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	s.lg = cfg.Logger
	if s.lg == nil {
		s.lg = obs.DiscardLogger()
	}
	reg := cfg.Registry
	s.mRequests = reg.Counter("fdiamd_requests_total", "diameter requests received")
	s.mRejected = reg.Counter("fdiamd_rejected_total", "requests rejected because the admission queue was full")
	s.mGraphHits = reg.Counter("fdiamd_graph_cache_hits_total", "requests served from the parsed-graph cache")
	s.mGraphMisses = reg.Counter("fdiamd_graph_cache_misses_total", "requests that parsed their graph from scratch")
	s.mResultHits = reg.Counter("fdiamd_result_cache_hits_total", "requests answered from the result cache without solving")
	s.mPanics = reg.Counter("fdiamd_panics_total", "handler panics recovered into 500 responses")
	s.mCancelled = reg.Counter("fdiamd_solves_cancelled_total", "solves that returned cancelled (deadline, disconnect or shutdown)")
	s.mResumes = reg.Counter("fdiamd_resumes_total", "orphaned solves resumed from a checkpoint snapshot")
	s.mJobsSubmitted = reg.Counter("fdiamd_jobs_submitted_total", "async jobs accepted via POST /jobs")
	s.mJobsCompleted = reg.Counter("fdiamd_jobs_completed_total", "async jobs that finished with a result")
	s.mJobsCancelled = reg.Counter("fdiamd_jobs_cancelled_total", "async jobs cancelled by timeout or shutdown")
	s.gInflight = reg.Gauge("fdiamd_inflight_solves", "solves currently running")
	s.gQueued = reg.Gauge("fdiamd_queued_solves", "solves waiting for a slot")
	s.gGraphBytes = reg.Gauge("fdiamd_graph_cache_bytes", "resident bytes in the parsed-graph cache")
	s.hQueueWait = reg.Histogram("fdiamd_queue_wait_seconds",
		"time admitted solves spend waiting for an execution slot", obs.HistogramOpts{})
	// A serving daemon is always scraped, so its histograms run armed; the
	// library default stays disarmed (see obs.Registry.ArmHistograms).
	reg.ArmHistograms(true)

	s.mux.HandleFunc("/diameter", s.handleDiameter)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobGet)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	// Everything else falls through to the shared introspection mux:
	// /metrics, /debug/pprof.
	s.mux.Handle("/", obs.NewMux(reg))
	return s, nil
}

// Shutdown makes the server drain: new solves are refused with 503,
// every in-flight solve's context is cancelled (so each returns its best
// lower bound within one BFS level), and the call blocks until all
// admitted requests have finished writing their responses or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel()
	done := make(chan struct{})
	// Shutdown is a cold path; a watcher goroutine bridging WaitGroup to
	// channel is the standard idiom and dies with the wait.
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.graphDir != nil {
			_ = s.graphDir.Close()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// response is the /diameter reply schema. Witnesses use -1 for "none" so
// consumers need not know the internal NoVertex sentinel; the cache
// fields let clients and tests observe which layers were hit.
type response struct {
	Diameter  int32 `json:"diameter"`
	Infinite  bool  `json:"infinite"`
	TimedOut  bool  `json:"timed_out"`
	Cancelled bool  `json:"cancelled"`
	Resumed   bool  `json:"resumed,omitempty"`
	// Upper is the best proven upper bound at exit; Diameter is the best
	// proven lower bound, and Approximate is set whenever the corridor did
	// not collapse (ε-early-exit or ?mode=approx with a residual gap).
	Upper       int32 `json:"upper"`
	Gap         int32 `json:"gap"`
	Approximate bool  `json:"approximate"`
	// Epsilon and Mode echo the request's anytime parameters.
	Epsilon        int32  `json:"epsilon,omitempty"`
	Mode           string `json:"mode,omitempty"`
	WitnessA       int64  `json:"witness_a"`
	WitnessB       int64  `json:"witness_b"`
	ElapsedNS      int64  `json:"elapsed_ns"`
	GraphHash      string `json:"graph_hash"`
	GraphCacheHit  bool   `json:"graph_cache_hit"`
	ResultCacheHit bool   `json:"result_cache_hit"`
	RequestID      string `json:"request_id,omitempty"`
	// Trace is the solve's Chrome trace-event JSON, present when the
	// request asked for ?trace=1 (load it in Perfetto or chrome://tracing).
	Trace json.RawMessage `json:"trace,omitempty"`
	Stats *core.Stats     `json:"stats,omitempty"`
}

// handleDiameter is the synchronous entry point of the solve pipeline
// (DESIGN.md §9): it runs the solve inline, or under a bound subscription
// for ?stream=bounds, and answers with the outcome.
func (s *Server) handleDiameter(w http.ResponseWriter, r *http.Request) {
	var streamBounds, wantTrace bool
	req, ok := s.intake(w, r, "POST a graph file (fdiam binary, Matrix Market, DIMACS or edge list)", func(q url.Values) error {
		streamBounds, wantTrace = q.Get("stream") == "bounds", q.Get("trace") == "1"
		if mode := q.Get("stream"); mode != "" && !streamBounds {
			return fmt.Errorf("stream: unknown mode %q (only \"bounds\")", mode)
		}
		return nil
	})
	if !ok {
		return
	}
	var traceBuf *bytes.Buffer
	respond := func(o outcome) response {
		out := s.buildResponse(obs.RequestIDFrom(r.Context()), req.key, req.at, o)
		if traceBuf != nil {
			out.Trace = json.RawMessage(traceBuf.Bytes())
		}
		return out
	}
	o, cached, err := s.load(req)
	switch {
	case err != nil:
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	case cached && streamBounds:
		streamCached(w, respond(o))
		return
	case cached:
		writeJSON(w, http.StatusOK, respond(o))
		return
	}
	if !s.admit(w, req) {
		return
	}
	defer s.release()

	// Request-scoped observability run: bound streaming subscribes to it,
	// ?trace=1 captures its Chrome trace. Plain solves keep a nil tracer —
	// the zero-cost default.
	var run *obs.Run
	if streamBounds || wantTrace {
		var runCfg obs.Config
		if wantTrace {
			traceBuf = &bytes.Buffer{}
			runCfg.ChromeTrace = traceBuf
		}
		run = obs.NewRun(runCfg)
	}
	if streamBounds {
		streamSolve(w, run, func() (response, bool) {
			o, ran := s.solve(r.Context(), req, run)
			return respond(o), ran
		})
		return
	}
	o, ran := s.solve(r.Context(), req, run)
	if !ran {
		if s.baseCtx.Err() != nil {
			http.Error(w, "draining", http.StatusServiceUnavailable)
		}
		return // otherwise the client went away while queued; nothing to write
	}
	writeJSON(w, http.StatusOK, respond(o))
}

// request carries one solve through the pipeline every entry point shares:
// intake → load → admit → solve (DESIGN.md §9).
type request struct {
	key      string // hex SHA-256 of the serialized graph
	at       anytime
	timeout  time.Duration
	data     []byte // the serialized graph; dropped once the checkpoint is armed
	g        *graph.Graph
	graphHit bool
	ck       core.CheckpointOptions
}

// outcome is what a response is built from: the result plus the cache
// layers that produced it.
type outcome struct {
	res       core.Result
	elapsed   time.Duration // solve time only; zero for a result-cache hit
	graphHit  bool
	resultHit bool
}

// intake is the pipeline's first step for HTTP entry points: method and
// drain checks, the endpoint's own query parameters (vet runs before the
// body is read), the anytime and timeout parameters, the graph bytes, and
// the content key. On failure it has written the error response.
func (s *Server) intake(w http.ResponseWriter, r *http.Request, usage string, vet func(url.Values) error) (*request, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, usage, http.StatusMethodNotAllowed)
		return nil, false
	}
	s.mRequests.Inc()
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil, false
	}
	q := r.URL.Query()
	if err := vet(q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	at, err := parseAnytime(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	data, status, err := s.requestGraphBytes(w, r)
	if err != nil {
		// The access log records the status; this line adds the cause
		// (staged-read failures especially), still under this request_id.
		obs.LoggerFrom(r.Context()).Warn("graph_read_failed", obs.KeyError, err.Error())
		http.Error(w, err.Error(), status)
		return nil, false
	}
	sum := sha256.Sum256(data)
	return &request{key: hex.EncodeToString(sum[:]), at: at, timeout: timeout, data: data}, true
}

// load is the pipeline's second step. A finished diameter is a pure
// function of the graph content, so a result-cache hit answers without
// admission or solve (cached is true); otherwise req.g comes from the graph
// cache or is parsed from req.data.
func (s *Server) load(req *request) (o outcome, cached bool, err error) {
	if res, ok := s.lookupResult(req.key, req.at); ok {
		s.mResultHits.Inc()
		return cacheHit(res), true, nil
	}
	if req.g, req.graphHit = s.graphs.get(req.key); !req.graphHit {
		if req.g, err = graphio.ReadAuto(req.data); err != nil {
			return outcome{}, false, err
		}
	}
	return outcome{}, false, nil
}

// cacheHit is the outcome of an answer served from the result cache.
func cacheHit(res core.Result) outcome {
	return outcome{res: res, graphHit: true, resultHit: true}
}

// admit is the pipeline's third step for requests: running + queued may
// not exceed MaxConcurrent + MaxQueue, and only an admitted solve arms its
// checkpoint directory, so a rejected request leaves nothing on disk. On
// success the caller owns one ledger entry and one inflight count and
// returns them with release; on failure admit has written the 429.
func (s *Server) admit(w http.ResponseWriter, req *request) bool {
	if admitted := s.admitted.Add(1); admitted > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.admitted.Add(-1)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "solver queue full", http.StatusTooManyRequests)
		return false
	}
	s.inflight.Add(1)
	s.armCheckpoint(req)
	return true
}

// release returns what a successful admit took.
func (s *Server) release() {
	s.admitted.Add(-1)
	s.inflight.Done()
}

// solve is the pipeline's last step: wait for an execution slot, run the
// solver, and publish the outcome. The wait and the run stop on whichever
// fires first of shutdown (baseCtx) and parent — the client connection, a
// job's detached request context, or the orphan-recovery bound — with the
// per-request deadline applied to the run alone. ran is false when the wait
// ended before a slot freed; the outcome then reads cancelled. A non-nil
// run is finished before solve returns, which ends its bound subscriptions.
func (s *Server) solve(parent context.Context, req *request, run *obs.Run) (o outcome, ran bool) {
	if run != nil {
		defer func() { _ = run.Finish() }()
	}
	// baseCtx is deliberately not a child of parent (a drain must not wait
	// on slow clients), so parent's cancellation is bridged in and its
	// logger and request ID are re-attached.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	defer context.AfterFunc(parent, cancel)()
	ctx = obs.ContextWithRequestID(obs.ContextWithLogger(ctx, obs.LoggerFrom(parent)), obs.RequestIDFrom(parent))

	s.gQueued.Add(1)
	queueStart := s.hQueueWait.StartTimer()
	select {
	case s.slots <- struct{}{}:
		s.gQueued.Add(-1)
		s.hQueueWait.ObserveSince(queueStart)
	case <-ctx.Done():
		s.gQueued.Add(-1)
		return outcome{res: core.Result{Cancelled: true}}, false
	}
	defer func() { <-s.slots }()

	opt := core.Options{Workers: s.cfg.Workers, Timeout: req.timeout, Checkpoint: req.ck, Trace: run,
		Epsilon: req.at.solverEpsilon()}
	if req.at.approx {
		// The estimator's sampling seed is the first 8 bytes of the content
		// hash (req.key is its hex form; orphans, the only non-hash keys, are
		// never approximate): the same graph with the same budget produces
		// the same corridor from every entry point, matching the cache's
		// promise.
		seed, _ := strconv.ParseUint(req.key[:16], 16, 64)
		opt.Approx = core.ApproxOptions{Sweeps: req.at.sweeps, Seed: seed}
	}
	s.gInflight.Add(1)
	start := time.Now()
	res := core.DiameterCtx(ctx, req.g, opt)
	elapsed := time.Since(start)
	s.gInflight.Add(-1)
	s.publishOutcome(req, res)
	return outcome{res: res, elapsed: elapsed, graphHit: req.graphHit}, true
}

// publishOutcome settles a finished solve into the caches and counters: a
// cancelled run leaves its checkpoint directory for resume, a completed one
// publishes to both caches and retires its checkpoint directory.
func (s *Server) publishOutcome(req *request, res core.Result) {
	if res.Cancelled {
		// A cancelled checkpointed solve deliberately leaves its directory
		// behind: the snapshot inside is exactly what ResumeOrphans (or a
		// retrying client) continues from.
		s.mCancelled.Inc()
		return
	}
	if res.Resumed {
		s.mResumes.Inc()
	}
	if req.graphHit {
		s.mGraphHits.Inc()
	} else {
		s.mGraphMisses.Inc()
		s.graphs.add(req.key, req.g)
		s.gGraphBytes.Set(s.graphs.bytes())
	}
	if res.Approximate {
		// An open corridor is cached only under its parameter-qualified
		// key: the bare content key is the exact-diameter promise, and
		// an approximate entry must never be served against it.
		s.results.addAnytime(req.at.cacheKey(req.key), res)
	} else {
		s.results.add(req.key, res)
	}
	if res.Approximate && !res.TimedOut {
		// An ε-stopped solve left a positioned snapshot behind; a later
		// exact (or tighter-ε) request for the same graph resumes from it
		// instead of restarting. Timed-out runs keep the pre-existing
		// retirement behavior.
		return
	}
	s.clearCheckpointDir(req.key)
}

// lookupResult is the two-layer result-cache probe: an exact entry under
// the bare content key satisfies any request, and an anytime request
// additionally accepts an approximate entry cached under its
// parameter-qualified key.
func (s *Server) lookupResult(key string, at anytime) (core.Result, bool) {
	if res, ok := s.results.get(key); ok {
		return res, true
	}
	if at.enabled() {
		if res, ok := s.results.get(at.cacheKey(key)); ok {
			return res, true
		}
	}
	return core.Result{}, false
}

// retryAfterSeconds derives the queue-full Retry-After hint from live
// occupancy: each wave of MaxConcurrent queued solves adds a second to the
// estimate, and up to 50% jitter spreads a synchronized client herd across
// the window instead of stampeding the instant it closes.
func (s *Server) retryAfterSeconds() int {
	queued := s.admitted.Load() - int64(s.cfg.MaxConcurrent)
	if queued < 0 {
		queued = 0
	}
	base := 1 + int(queued)/s.cfg.MaxConcurrent
	const maxHint = 30
	if base > maxHint {
		base = maxHint
	}
	return base + rand.IntN(base/2+1)
}

// requestTimeout resolves the effective solve deadline: the request's
// `timeout` parameter, clamped to MaxTimeout, defaulting to
// DefaultTimeout.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("timeout: %v", err)
		}
		if d < 0 {
			return 0, fmt.Errorf("timeout: negative duration %s", d)
		}
		timeout = d
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return timeout, nil
}

// maxBodyPrealloc caps the body buffer reserved from a request's
// Content-Length before any of the body has arrived.
const maxBodyPrealloc = 64 << 20

// requestGraphBytes returns the serialized graph for the request: the
// uploaded body, or — when a graph directory is configured — the
// pre-staged file named by the `path` parameter. Staged METIS files are
// refused: fdiamd parses every graph by content (ReadAuto), which reads a
// METIS header as an edge and would solve the wrong graph.
func (s *Server) requestGraphBytes(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	if name := r.URL.Query().Get("path"); name != "" {
		if s.graphDir == nil {
			return nil, http.StatusBadRequest, errors.New("path requests disabled: no -graphs directory configured")
		}
		if graphio.IsMETIS(name) {
			return nil, http.StatusBadRequest, fmt.Errorf(
				"path: %s is METIS, which fdiamd does not read; stage the graph as binary CSR instead (graphgen -o x.bin)", name)
		}
		return s.readStaged(name)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	// Size the buffer from Content-Length so the body is read into one
	// allocation, with bytes.MinRead spare for ReadFrom to see EOF. The
	// length is the client's claim, so what it can reserve before sending
	// a byte is capped; a larger body grows the buffer as it arrives.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), s.cfg.MaxUploadBytes, maxBodyPrealloc)+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	data := buf.Bytes()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("body: %v", err)
	}
	if len(data) == 0 {
		return nil, http.StatusBadRequest, errors.New("empty body: POST a graph file or use ?path=")
	}
	return data, 0, nil
}

// readStaged reads a pre-staged graph file from the graph directory. An
// entry that is not a regular file (a directory, a device) is the client's
// mistake, answered 400 before any read.
func (s *Server) readStaged(name string) ([]byte, int, error) {
	f, err := s.graphDir.Open(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, http.StatusNotFound, fmt.Errorf("path: %s not found", name)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("path: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("path: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, http.StatusBadRequest, fmt.Errorf("path: %s is not a regular file", name)
	}
	data, err := io.ReadAll(io.LimitReader(f, s.cfg.MaxUploadBytes+1))
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("path: %w", err)
	}
	if int64(len(data)) > s.cfg.MaxUploadBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph file exceeds %d bytes", s.cfg.MaxUploadBytes)
	}
	return data, 0, nil
}

// graphFileName is the serialized-graph copy kept beside state.ckpt in a
// per-graph checkpoint directory, so a restarted process can re-parse the
// input without the original client.
const graphFileName = "graph"

// armCheckpoint prepares <CheckpointDir>/<key>/ for one solve and drops
// req.data: the raw graph bytes are persisted beside the future snapshot
// (write-then-rename, so a crash mid-write never leaves a torn copy), and an
// existing snapshot from a previous process is selected for resume.
// Failures disable checkpointing for this solve rather than failing it.
func (s *Server) armCheckpoint(req *request) {
	data := req.data
	req.data = nil // the CSR form is all that is retained past this point
	if s.cfg.CheckpointDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.CheckpointDir, req.key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	gpath := filepath.Join(dir, graphFileName)
	if _, err := os.Stat(gpath); err != nil {
		tmp := gpath + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return
		}
		if err := os.Rename(tmp, gpath); err != nil {
			return
		}
	}
	req.ck = core.CheckpointOptions{Dir: dir, Every: s.cfg.CheckpointEvery}
	if snap := filepath.Join(dir, checkpoint.FileName); fileExists(snap) {
		req.ck.ResumeFrom = snap
	}
}

// clearCheckpointDir retires a completed solve's checkpoint directory (the
// solver already removed state.ckpt; the graph copy and the directory go
// with it).
func (s *Server) clearCheckpointDir(key string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.RemoveAll(filepath.Join(s.cfg.CheckpointDir, key))
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// ResumeOrphans finishes the solves a previous process left behind in
// CheckpointDir: every per-graph directory still holding a serialized graph
// is re-parsed and solved — resuming from its snapshot when one survived —
// and the result lands in the caches exactly as if a client had requested
// it. Returns the number of orphaned solves that ran. It blocks until done
// (callers wanting a non-blocking boot run it in a goroutine) and respects
// MaxConcurrent via the same slot pool as request solves. Cancelling ctx
// bounds the recovery pass without shutting the server down: in-flight
// orphan solves are cancelled (leaving their snapshots for the next boot)
// and remaining directories are left untouched.
func (s *Server) ResumeOrphans(ctx context.Context) int {
	if s.cfg.CheckpointDir == "" {
		return 0
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return 0
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() || ctx.Err() != nil {
			continue
		}
		if s.resumeOrphan(ctx, e.Name()) {
			ran++
		}
	}
	return ran
}

// resumeOrphan re-runs one orphaned solve through the load and solve steps
// with a plain exact request: orphans are not requests, so they take no
// admission-ledger entry, but they wait for the same slot pool and publish
// like any solve. anytime{} finishes the orphan exactly (Epsilon −1): a
// snapshot left by an ε-stopped request must not re-stop at its recorded
// tolerance and launder an approximate corridor into the bare-key result
// cache. A directory without a readable, parsable graph copy is garbage
// from a crash mid-setup and is removed, as is one whose exact answer is
// already cached; a solve cancelled by shutdown leaves its (freshly
// re-written) snapshot for the next boot.
func (s *Server) resumeOrphan(ctx context.Context, key string) bool {
	dir := filepath.Join(s.cfg.CheckpointDir, key)
	data, err := os.ReadFile(filepath.Join(dir, graphFileName))
	if err != nil {
		_ = os.RemoveAll(dir)
		return false
	}
	req := &request{key: key, data: data}
	_, cached, err := s.load(req)
	if err != nil || cached {
		_ = os.RemoveAll(dir)
		return false
	}
	s.armCheckpoint(req)
	s.inflight.Add(1)
	defer s.inflight.Done()
	_, ran := s.solve(ctx, req, nil)
	return ran
}

// buildResponse takes the request ID as a plain string rather than the
// *http.Request so async jobs — which outlive their submitting request —
// can build the same payload.
func (s *Server) buildResponse(requestID, key string, at anytime, o outcome) response {
	witness := func(v uint32) int64 {
		if v == graph.NoVertex {
			return -1
		}
		return int64(v)
	}
	res := o.res
	return response{
		Diameter:       res.Diameter,
		Infinite:       res.Infinite,
		TimedOut:       res.TimedOut,
		Cancelled:      res.Cancelled,
		Resumed:        res.Resumed,
		Upper:          res.Upper,
		Gap:            res.Gap,
		Approximate:    res.Approximate,
		Epsilon:        at.epsilon,
		Mode:           at.mode(),
		WitnessA:       witness(res.WitnessA),
		WitnessB:       witness(res.WitnessB),
		ElapsedNS:      o.elapsed.Nanoseconds(),
		GraphHash:      key,
		GraphCacheHit:  o.graphHit,
		ResultCacheHit: o.resultHit,
		RequestID:      requestID,
		Stats:          &res.Stats,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
