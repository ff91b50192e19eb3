// Command fdiamd serves exact diameter computation over HTTP.
//
// Usage:
//
//	fdiamd [flags]
//
// Endpoints:
//
//	POST /diameter          solve the graph file in the request body
//	POST /diameter?path=f   solve a pre-staged file from the -graphs dir
//	POST /jobs              submit an async solve; responds 202 with a job id
//	GET  /jobs/{id}         poll an async job (id = the graph's SHA-256)
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           Prometheus text format (fdiamd_* + solver)
//	GET  /debug/pprof/      standard profiling tree
//
// Anytime answers: POST /diameter?epsilon=E stops the solve once the
// bound corridor satisfies ub − lb ≤ E and responds with the corridor
// ({"diameter": lb, "upper": ub, "gap": ub−lb, "approximate": true}); the
// true diameter always lies inside it. POST /diameter?mode=approx[&sweeps=S]
// skips the main loop entirely and answers from S budgeted double sweeps
// (default 4, max 64) — fast, sound, and deterministic for a given graph.
// Approximate results are cached under parameter-qualified keys so they
// never satisfy a later exact request, while a cached exact answer
// satisfies any tolerance.
//
// POST /diameter?stream=bounds streams the solve as Server-Sent Events:
// one `bound` event per corridor tightening ({lb, ub, witness_a,
// witness_b, elapsed_ns}) and a terminal `result` event carrying the
// normal response JSON. Progress is per request: this stream, or GET
// /jobs/{id} for an async job; no endpoint shows a process-wide run. POST /diameter?trace=1 embeds a Chrome trace of
// the solve in the response. Every response echoes X-Request-ID (accepted
// from the client or minted), and with -log-format/-log-level set the
// daemon emits structured access and solver logs joinable on request_id.
//
// The `timeout` query parameter (a Go duration, e.g. ?timeout=30s) bounds
// one solve; a timed-out solve responds 200 with "timed_out": true and the
// best lower bound found. SIGINT/SIGTERM drain gracefully: in-flight
// solves are cancelled at their next BFS level boundary and their partial
// bounds are still written before the process exits.
//
// With -checkpoint-dir set, every solve periodically snapshots its state
// there (one subdirectory per graph, content-addressed); after a crash or
// kill -9 the next boot resumes the orphaned solves from their snapshots and
// publishes the results to the caches, losing at most one checkpoint
// interval of work. Async jobs (POST /jobs) survive process death the same
// way: the next boot finishes them and GET /jobs/{id} finds the result.
//
// Examples:
//
//	fdiamd -addr :8080
//	fdiamd -addr :8080 -graphs /data/graphs -max-concurrent 4 -max-timeout 2.5h
//	fdiamd -addr :8080 -checkpoint-dir /var/lib/fdiamd/ckpt -checkpoint-interval 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fdiam/internal/obs"
	"fdiam/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fdiamd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it serves until ctx is cancelled, then
// drains and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdiamd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	graphs := fs.String("graphs", "", "directory of pre-staged graph files for ?path= requests (empty = uploads only)")
	workers := fs.Int("workers", 0, "parallel workers per solve (0 = all CPUs)")
	maxConcurrent := fs.Int("max-concurrent", 2, "solves running simultaneously")
	maxQueue := fs.Int("max-queue", 8, "solves waiting beyond the running ones before 429")
	cacheBytes := fs.Int64("graph-cache-bytes", 1<<30, "parsed-graph LRU budget in bytes")
	resultCache := fs.Int("result-cache", 4096, "finished-result LRU entries")
	defTimeout := fs.Duration("default-timeout", 0, "timeout applied when a request sends none (0 = unbounded)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on per-request timeouts (0 = no cap)")
	maxUpload := fs.Int64("max-upload-bytes", 1<<30, "request body size limit")
	drain := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	ckDir := fs.String("checkpoint-dir", "", "persist crash-safe snapshots of in-flight solves here and resume them on boot (empty = off)")
	ckEvery := fs.Duration("checkpoint-interval", 10*time.Second, "snapshot cadence for checkpointed solves")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error (debug includes per-solve stage and bound events)")
	runtimeMetrics := fs.Duration("runtime-metrics", 10*time.Second, "runtime self-telemetry sampling interval (heap, GC, goroutines; 0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v (fdiamd takes only flags, see -h)", fs.Args())
	}
	lg, err := obs.NewLogger(out, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *runtimeMetrics > 0 {
		stopSampler := obs.StartRuntimeSampler(obs.Default(), *runtimeMetrics)
		defer stopSampler()
	}

	api, err := serve.New(serve.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		GraphCacheBytes: *cacheBytes,
		ResultCacheSize: *resultCache,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxUploadBytes:  *maxUpload,
		GraphDir:        *graphs,
		CheckpointDir:   *ckDir,
		CheckpointEvery: *ckEvery,
		Workers:         *workers,
		Logger:          lg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: api}
	errc := make(chan error, 1)
	// Serve returns http.ErrServerClosed after the Shutdown below; any
	// other error (listener died) aborts the daemon.
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "fdiamd: listening on http://%s\n", ln.Addr())
	if *ckDir != "" {
		// Boot-time recovery runs behind the listener so a daemon with a
		// backlog of crashed solves still answers health checks instantly.
		go func() {
			if n := api.ResumeOrphans(context.Background()); n > 0 {
				fmt.Fprintf(out, "fdiamd: finished %d orphaned solve(s) from %s\n", n, *ckDir)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "fdiamd: draining (cancelling in-flight solves, up to %s)\n", *drain)
	sdCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: api.Shutdown cancels the solver contexts so the
	// handlers finish writing partial results, after which the HTTP
	// shutdown has no long-running connections left to wait for.
	if err := api.Shutdown(sdCtx); err != nil {
		_ = srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // reap the accept loop's ErrServerClosed
	fmt.Fprintln(out, "fdiamd: stopped")
	return nil
}
