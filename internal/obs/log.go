package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// Canonical slog attribute keys. Keys are constant snake_case strings —
// enforced repo-wide by fdiamlint's logkeys analyzer — so that every log
// line of a solve is joinable on the same field names regardless of which
// layer emitted it.
const (
	// KeyRequestID joins all log lines of one fdiamd request; the same
	// value is echoed as the X-Request-ID response header.
	KeyRequestID = "request_id"
	KeyRoute     = "route"
	KeyMethod    = "method"
	KeyRemote    = "remote"
	KeyStatus    = "status"
	KeyOutcome   = "outcome"
	KeyBytes     = "bytes"
	KeyElapsedMS = "elapsed_ms"
	KeyStage     = "stage"
	KeyBound     = "bound"
	KeyUpper     = "upper"
	KeyWitnessA  = "witness_a"
	KeyWitnessB  = "witness_b"
	KeyGraphHash = "graph_hash"
	KeyVertices  = "vertices"
	KeyDiameter  = "diameter"
	KeyGap       = "gap"
	KeyError     = "error"
	KeyPanic     = "panic"
	KeyPath      = "path"
	// KeyJobID joins the lifecycle lines of one async job.
	KeyJobID = "job_id"
)

// NewLogger builds a slog.Logger writing to w. format is "text" or "json";
// level is "debug", "info", "warn" or "error". These are the -log-format /
// -log-level flag values of both daemons.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// discardLogger backs LoggerFrom's no-logger path: a shared instance so the
// lookup never allocates.
var discardLogger = slog.New(slog.DiscardHandler)

// DiscardLogger returns the shared logger that drops everything — the
// default when no logger was configured.
func DiscardLogger() *slog.Logger { return discardLogger }

type ctxKeyLogger struct{}
type ctxKeyRequestID struct{}

// ContextWithLogger returns a context carrying lg, retrievable with
// LoggerFrom. fdiamd's middleware installs the per-request logger (already
// tagged with request_id) here, and the solver pulls it back out so its
// stage/bound lines join the access log.
func ContextWithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	if lg == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyLogger{}, lg)
}

// LoggerFrom returns the context's logger, or the shared discard logger if
// none was installed — callers never need a nil check.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if ctx != nil {
		if lg, ok := ctx.Value(ctxKeyLogger{}).(*slog.Logger); ok {
			return lg
		}
	}
	return discardLogger
}

// ContextWithRequestID returns a context carrying the request ID.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyRequestID{}, id)
}

// RequestIDFrom returns the context's request ID, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}
