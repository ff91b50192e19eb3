package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// MetricsHandler serves the registry in Prometheus text exposition format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A failed response write has no recovery path in a handler.
		_ = reg.WriteText(w)
	})
}

// NewMux builds the introspection mux: /metrics (Prometheus text) and the
// standard /debug/pprof tree.
// Registered explicitly rather than via the net/http/pprof side effects so
// nothing leaks onto http.DefaultServeMux.
func NewMux(reg *Registry) *http.ServeMux {
	if reg == nil {
		reg = Default()
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a live introspection endpoint (fdiam -http :6060).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving the introspection mux on addr (e.g. ":6060", or
// "127.0.0.1:0" to pick a free port — read it back with Addr). reg == nil
// selects the Default registry.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewMux(reg)}}
	// Serve returns http.ErrServerClosed once Close shuts the server down.
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the listener's actual address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
