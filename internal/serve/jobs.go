package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"fdiam/internal/core"
	"fdiam/internal/graph"
	"fdiam/internal/graphio"
	"fdiam/internal/obs"
)

// Async job API: POST /jobs submits the same request POST /diameter takes
// and returns immediately with a job ID; GET /jobs/{id} polls it. The job
// ID is the graph's content SHA-256 — the same key the caches and the
// per-graph checkpoint directories use — which is what makes jobs
// crash-safe without any job journal: a process death mid-solve leaves the
// checkpoint directory behind, the next boot's ResumeOrphans finishes the
// solve and publishes the result under the key, and GET /jobs/{id} finds
// it in the result cache as if nothing had happened.
type jobRecord struct {
	id        string
	requestID string
	at        anytime
	timeout   time.Duration

	// Guarded by jobTable.mu after publication.
	state string // jobRunning | jobDone | jobCancelled
	res   core.Result
}

const (
	jobRunning   = "running"
	jobDone      = "done"
	jobCancelled = "cancelled"
	jobUnknown   = "unknown"
)

type jobTable struct {
	mu sync.Mutex
	m  map[string]*jobRecord
}

func newJobTable() *jobTable { return &jobTable{m: make(map[string]*jobRecord)} }

// claim registers a job for id unless one is already live; the existing
// record is returned so duplicate submissions are idempotent.
func (t *jobTable) claim(j *jobRecord) (existing *jobRecord, claimed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[j.id]; ok {
		return cur, false
	}
	t.m[j.id] = j
	return j, true
}

func (t *jobTable) get(id string) (*jobRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[id]
	return j, ok
}

func (t *jobTable) drop(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// finish publishes the job's outcome and returns a snapshot of the record.
func (t *jobTable) finish(j *jobRecord, state string, res core.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.state = state
	j.res = res
}

// view reads the record's mutable fields under the table lock. It works
// for any record — table-resident or a cache-hit record that never entered
// the map — because it locks the table, not the map entry.
func (t *jobTable) view(j *jobRecord) (state string, res core.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return j.state, j.res
}

// jobResponse is the /jobs reply schema, shared by submit and poll.
type jobResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Result carries the full /diameter response once the job is done; for
	// a cancelled job it holds the best proven bounds at cancellation.
	Result *response `json:"result,omitempty"`
}

// validJobID accepts exactly the 64-hex-char SHA-256 content keys jobs are
// addressed by.
func validJobID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleJobs serves POST /jobs: admit, register, answer 202 with the job
// ID, and run the solve in the background under the same slot pool request
// solves use.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a graph file to submit an async job; poll GET /jobs/{id}", http.StatusMethodNotAllowed)
		return
	}
	s.mRequests.Inc()
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	lg := obs.LoggerFrom(r.Context())

	q := r.URL.Query()
	at, err := parseAnytime(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.Has("webhook") {
		// Rejected rather than ignored: a client expecting a callback
		// would otherwise wait forever.
		http.Error(w, "webhook: not supported; poll GET /jobs/{id}", http.StatusBadRequest)
		return
	}
	data, status, err := s.requestGraphBytes(w, r)
	if err != nil {
		lg.Warn("graph_read_failed", obs.KeyError, err.Error())
		http.Error(w, err.Error(), status)
		return
	}
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])

	// An already-known answer completes the job instantly.
	if res, ok := s.lookupResult(key, at); ok {
		s.mResultHits.Inc()
		j := &jobRecord{id: key, requestID: obs.RequestIDFrom(r.Context()), at: at, state: jobDone, res: res}
		s.writeJob(w, http.StatusOK, s.jobResponseFor(j, key))
		return
	}

	j := &jobRecord{
		id:        key,
		requestID: obs.RequestIDFrom(r.Context()),
		at:        at,
		timeout:   timeout,
		state:     jobRunning,
	}
	cur, claimed := s.jobs.claim(j)
	if !claimed {
		// A live submission for the same graph: return its ID — the solve,
		// checkpoint dir and result are all keyed by content, so there is
		// nothing a second run could add.
		state, _ := s.jobs.view(cur)
		code := http.StatusAccepted
		if state != jobRunning {
			code = http.StatusOK
		}
		s.writeJob(w, code, s.jobResponseFor(cur, key))
		return
	}

	g, graphHit := s.graphs.get(key)
	if !graphHit {
		parsed, err := graphio.ReadAuto(data)
		if err != nil {
			s.jobs.drop(key)
			http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
			return
		}
		g = parsed
	}

	// Jobs ride the same admission ledger as synchronous solves: a flood
	// of submissions beyond running+queued capacity gets 429s, not an
	// unbounded goroutine pile.
	if admitted := s.admitted.Add(1); admitted > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.admitted.Add(-1)
		s.jobs.drop(key)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "solver queue full", http.StatusTooManyRequests)
		return
	}
	var ck core.CheckpointOptions
	if s.cfg.CheckpointDir != "" {
		// The graph copy is persisted before the 202 goes out: from this
		// point on, even kill -9 leaves enough on disk for the next boot
		// to finish the job.
		ck = s.checkpointOptions(key, data)
	}
	s.mJobsSubmitted.Inc()
	lg.Info("job_submitted", obs.KeyJobID, key)
	s.inflight.Add(1)
	//fdiamlint:ignore nakedgo async job solve, bounded by the admission ledger and slot pool, joined via inflight on drain
	go s.runJob(j, g, graphHit, ck)
	s.writeJob(w, http.StatusAccepted, s.jobResponseFor(j, key))
}

// runJob executes one submitted job under the shared slot pool. The solve
// context is the server's base context (a job outlives its submitting
// request by design) plus the job's own timeout.
func (s *Server) runJob(j *jobRecord, g *graph.Graph, graphHit bool, ck core.CheckpointOptions) {
	defer s.inflight.Done()
	defer s.admitted.Add(-1)
	s.gQueued.Add(1)
	queueStart := s.hQueueWait.StartTimer()
	select {
	case s.slots <- struct{}{}:
		s.gQueued.Add(-1)
		s.hQueueWait.ObserveSince(queueStart)
	case <-s.baseCtx.Done():
		// Drained before the job got a slot: nothing ran, nothing is lost
		// — the persisted graph copy makes the next boot re-run it.
		s.gQueued.Add(-1)
		s.jobs.finish(j, jobCancelled, core.Result{Cancelled: true})
		s.mJobsCancelled.Inc()
		return
	}
	defer func() { <-s.slots }()

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	ctx = obs.ContextWithRequestID(obs.ContextWithLogger(ctx, s.lg.With(obs.KeyJobID, j.id)), j.requestID)

	opt := core.Options{Workers: s.cfg.Workers, Timeout: j.timeout, Checkpoint: ck, Epsilon: j.at.solverEpsilon()}
	if j.at.approx {
		sum := sha256.Sum256([]byte(j.id))
		opt.Approx = core.ApproxOptions{Sweeps: j.at.sweeps, Seed: binary.BigEndian.Uint64(sum[:8])}
	}
	s.gInflight.Add(1)
	res := core.DiameterCtx(ctx, g, opt)
	s.gInflight.Add(-1)
	s.publishOutcome(j.id, g, graphHit, res, j.at)

	if res.Cancelled {
		// The snapshot stays behind (publishOutcome never retires a
		// cancelled solve's directory); a restart or re-submission resumes
		// from it.
		s.jobs.finish(j, jobCancelled, res)
		s.mJobsCancelled.Inc()
		s.lg.Warn("job_cancelled", obs.KeyJobID, j.id, obs.KeyBound, res.Diameter)
		return
	}
	s.jobs.finish(j, jobDone, res)
	s.mJobsCompleted.Inc()
	s.lg.Info("job_done", obs.KeyJobID, j.id, obs.KeyDiameter, res.Diameter)
}

// handleJobGet serves GET /jobs/{id}. Lookup order is the in-memory
// record, then the result cache (which a restarted node's orphan resume
// repopulates), then a live checkpoint directory (an adopted solve still
// running).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET /jobs/{id}", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if !validJobID(id) {
		http.Error(w, "job id must be a 64-hex-char graph content hash", http.StatusBadRequest)
		return
	}
	if j, ok := s.jobs.get(id); ok {
		s.writeJob(w, http.StatusOK, s.jobResponseFor(j, id))
		return
	}
	// No record: this node may have restarted since the submission. The
	// result cache holds completed jobs (orphan resume publishes exactly
	// like a request solve would); a checkpoint directory means the
	// adopted solve is still running.
	if res, ok := s.results.get(id); ok {
		rr := s.buildResponse(obs.RequestIDFrom(r.Context()), id, res, 0, true, true, anytime{})
		s.writeJob(w, http.StatusOK, jobResponse{JobID: id, State: jobDone, Result: &rr})
		return
	}
	if s.cfg.CheckpointDir != "" && fileExists(filepath.Join(s.cfg.CheckpointDir, id, graphFileName)) {
		s.writeJob(w, http.StatusOK, jobResponse{JobID: id, State: jobRunning})
		return
	}
	s.writeJob(w, http.StatusNotFound, jobResponse{JobID: id, State: jobUnknown})
}

// jobResponseFor snapshots a record into the wire schema.
func (s *Server) jobResponseFor(j *jobRecord, key string) jobResponse {
	state, res := s.jobs.view(j)
	out := jobResponse{JobID: key, State: state}
	if state == jobDone || state == jobCancelled {
		rr := s.buildResponse(j.requestID, key, res, 0, false, state == jobDone, j.at)
		out.Result = &rr
	}
	return out
}

func (s *Server) writeJob(w http.ResponseWriter, code int, jr jobResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(jr)
}
