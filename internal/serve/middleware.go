package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"time"

	"fdiam/internal/obs"
)

// requestIDHeader is accepted from the client (so a caller's own tracing ID
// propagates through fdiamd's logs) and echoed on every response — 429
// rejects, panics and staged-read failures included, because the header is
// set before the handler runs.
const requestIDHeader = "X-Request-ID"

// validRequestID accepts client-supplied IDs of 1..128 characters drawn
// from [A-Za-z0-9._-]. Anything else (empty, huge, or carrying header/log
// injection material) is replaced by a minted ID.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// mintRequestID returns a fresh 16-hex-char ID.
func mintRequestID() string {
	var b [8]byte
	// crypto/rand.Read never fails on supported platforms (it aborts the
	// program instead), so the error is not consulted.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status code and body size for the access log
// and the latency histogram. It forwards Flush so SSE streaming works
// through the middleware, and exposes Unwrap for http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// routeLabel maps a request path onto the bounded route label set of the
// fdiamd_request_seconds histogram (labels must have bounded cardinality;
// raw paths do not).
func routeLabel(path string) string {
	switch {
	case path == "/diameter":
		return "diameter"
	case path == "/jobs" || strings.HasPrefix(path, "/jobs/"):
		return "jobs"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	default:
		return "other"
	}
}

// outcomeLabel classifies a response status for the latency histogram.
func outcomeLabel(status int) string {
	switch {
	case status == 0 || status < 400:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "rejected"
	case status < 500:
		return "client_error"
	default:
		return "server_error"
	}
}

// ServeHTTP is the request middleware wrapping every route: it assigns (or
// accepts) the request ID and echoes it on the response before anything
// else can write, installs a request-scoped logger into the context so
// solver log lines are joinable on request_id, recovers panics into logged
// 500s, and finishes each request with one structured access-log line and
// one observation in the route/outcome latency histogram.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if !validRequestID(id) {
		id = mintRequestID()
	}
	w.Header().Set(requestIDHeader, id)
	lg := s.lg.With(obs.KeyRequestID, id)
	r = r.WithContext(obs.ContextWithRequestID(
		obs.ContextWithLogger(r.Context(), lg), id))
	rec := &statusRecorder{ResponseWriter: w}
	route := routeLabel(r.URL.Path)
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			// A panicking handler (e.g. a checked-build invariant violation
			// inside the solver) becomes a logged 500 for this request
			// instead of killing the daemon.
			s.mPanics.Inc()
			lg.Error("panic", obs.KeyRoute, route, obs.KeyPanic, fmt.Sprint(p))
			if rec.status == 0 {
				http.Error(rec, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}
		elapsed := time.Since(start)
		status := rec.status
		if status == 0 {
			// Handler returned without writing (e.g. client vanished while
			// queued); net/http would have sent an implicit 200.
			status = http.StatusOK
		}
		s.hRequestSeconds(route, outcomeLabel(status)).Observe(elapsed.Nanoseconds())
		lg.Info("request",
			obs.KeyMethod, r.Method,
			obs.KeyPath, r.URL.Path,
			obs.KeyRoute, route,
			obs.KeyRemote, r.RemoteAddr,
			obs.KeyStatus, status,
			obs.KeyBytes, rec.bytes,
			obs.KeyElapsedMS, elapsed.Milliseconds())
	}()
	s.mux.ServeHTTP(rec, r)
}

// hRequestSeconds resolves the latency histogram instance for one
// route/outcome pair. Registration is idempotent, so this is a lookup after
// the first request of each pair.
func (s *Server) hRequestSeconds(route, outcome string) *obs.Histogram {
	return s.cfg.Registry.HistogramLabels("fdiamd_request_seconds",
		"request latency by route and outcome", obs.HistogramOpts{},
		"route", route, "outcome", outcome)
}
