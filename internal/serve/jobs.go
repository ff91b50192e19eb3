package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"

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

	// Guarded by jobTable.mu after publication.
	state string // jobRunning | jobDone | jobCancelled
	o     outcome
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

// claim registers a job for id unless one for the same graph is still
// running, which is returned instead. A finished record is replaced: its
// answer may be an approximate corridor, which must never stand in for a
// later exact submission (a finished exact answer is served from the
// result cache before claim is reached).
func (t *jobTable) claim(j *jobRecord) (running *jobRecord, claimed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.m[j.id]; ok && cur.state == jobRunning {
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

// finish publishes the job's outcome.
func (t *jobTable) finish(j *jobRecord, state string, o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.state = state
	j.o = o
}

// view reads the record's mutable fields under the table lock. It works
// for any record — table-resident or a cache-hit record that never entered
// the map — because it locks the table, not the map entry.
func (t *jobTable) view(j *jobRecord) (state string, o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return j.state, j.o
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

// handleJobs serves POST /jobs, the background entry point of the solve
// pipeline: intake, load, register, admit, answer 202 with the job ID, and
// run the solve step in the background.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	req, ok := s.intake(w, r, "POST a graph file to submit an async job; poll GET /jobs/{id}", func(q url.Values) error {
		// Rejected rather than ignored: a client expecting a callback, an
		// event stream or a trace would otherwise wait for something that
		// never comes.
		for _, p := range []string{"webhook", "stream", "trace"} {
			if q.Has(p) {
				return fmt.Errorf("%s: not supported; poll GET /jobs/{id}", p)
			}
		}
		return nil
	})
	if !ok {
		return
	}
	o, cached, err := s.load(req)
	if err != nil {
		http.Error(w, "parse: "+err.Error(), http.StatusBadRequest)
		return
	}
	j := &jobRecord{id: req.key, requestID: obs.RequestIDFrom(r.Context()), at: req.at, state: jobRunning}
	if cached {
		// An already-known answer completes the job instantly.
		j.state, j.o = jobDone, o
		writeJSON(w, http.StatusOK, s.jobResponseFor(j))
		return
	}
	cur, claimed := s.jobs.claim(j)
	if !claimed {
		// A running job for the same graph: with the same anytime
		// parameters it is this job, since the solve, checkpoint dir and
		// result are all keyed by content. With others, its answer is not
		// the one asked for, and the two solves would share a checkpoint.
		if cur.at != req.at {
			http.Error(w, "a job with other epsilon/mode parameters is running for this graph; retry when it finishes", http.StatusConflict)
			return
		}
		state, _ := s.jobs.view(cur)
		code := http.StatusAccepted
		if state != jobRunning {
			code = http.StatusOK
		}
		writeJSON(w, code, s.jobResponseFor(cur))
		return
	}
	// Admission arms the checkpoint before the 202 goes out: from then on
	// even kill -9 leaves enough on disk for the next boot to finish the job.
	if !s.admit(w, req) {
		s.jobs.drop(req.key)
		return
	}
	s.mJobsSubmitted.Inc()
	lg := obs.LoggerFrom(r.Context()).With(obs.KeyJobID, req.key)
	lg.Info("job_submitted")
	// A job outlives its submitting request: the solve keeps the request's
	// ID and logger but not its cancellation.
	ctx := obs.ContextWithLogger(context.WithoutCancel(r.Context()), lg)
	go s.runJob(ctx, j, req)
	writeJSON(w, http.StatusAccepted, s.jobResponseFor(j))
}

// runJob runs one admitted job's solve step and records its outcome. A job
// drained before it got a slot reads cancelled: nothing ran and nothing is
// lost, since the persisted graph copy makes the next boot re-run it.
func (s *Server) runJob(ctx context.Context, j *jobRecord, req *request) {
	defer s.release()
	o, _ := s.solve(ctx, req, nil)
	if o.res.Cancelled {
		// The snapshot stays behind (publishOutcome never retires a
		// cancelled solve's directory); a restart or re-submission resumes
		// from it.
		s.jobs.finish(j, jobCancelled, o)
		s.mJobsCancelled.Inc()
		s.lg.Warn("job_cancelled", obs.KeyJobID, j.id, obs.KeyBound, o.res.Diameter)
		return
	}
	s.jobs.finish(j, jobDone, o)
	s.mJobsCompleted.Inc()
	s.lg.Info("job_done", obs.KeyJobID, j.id, obs.KeyDiameter, o.res.Diameter)
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
		writeJSON(w, http.StatusOK, s.jobResponseFor(j))
		return
	}
	// No record: this node may have restarted since the submission. The
	// result cache holds completed jobs (orphan resume publishes exactly
	// like a request solve would); a checkpoint directory means the
	// adopted solve is still running.
	if res, ok := s.results.get(id); ok {
		j := &jobRecord{id: id, requestID: obs.RequestIDFrom(r.Context()), state: jobDone, o: cacheHit(res)}
		writeJSON(w, http.StatusOK, s.jobResponseFor(j))
		return
	}
	if s.cfg.CheckpointDir != "" && fileExists(filepath.Join(s.cfg.CheckpointDir, id, graphFileName)) {
		writeJSON(w, http.StatusOK, jobResponse{JobID: id, State: jobRunning})
		return
	}
	writeJSON(w, http.StatusNotFound, jobResponse{JobID: id, State: jobUnknown})
}

// jobResponseFor snapshots a record into the wire schema.
func (s *Server) jobResponseFor(j *jobRecord) jobResponse {
	state, o := s.jobs.view(j)
	out := jobResponse{JobID: j.id, State: state}
	if state == jobDone || state == jobCancelled {
		rr := s.buildResponse(j.requestID, j.id, j.at, o)
		out.Result = &rr
	}
	return out
}
