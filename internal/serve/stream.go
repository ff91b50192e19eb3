package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fdiam/internal/obs"
)

// SSE event names of POST /diameter?stream=bounds. The protocol (DESIGN.md
// §12): `bound` events carry a BoundEvent JSON object (the corridor
// [lb, ub] with its witness pair), and a `result` event carrying the full
// /diameter response JSON terminates the stream.
const (
	sseEventBound  = "bound"
	sseEventResult = "result"
)

// sseStart prepares w for Server-Sent Events and returns the flusher.
// Returns false (having written the error) when the connection cannot
// stream.
func sseStart(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusNotImplemented)
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Del("Content-Length")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// writeSSE writes one event. v is JSON-encoded as the data line; json
// output contains no raw newlines, so one data line is always enough.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

// streamSolve runs one admitted solve while streaming its bound corridor as
// SSE (`POST /diameter?stream=bounds`). Every corridor tightening becomes a
// `bound` event; the terminal `result` event carries the same response JSON
// a non-streaming request would have received. solve runs the pipeline's
// solve step under the subscribed run, which finishes the run and so closes
// the subscriber channel that ends the event loop. A solve that never got a
// slot (drain or disconnect while queued) ends the stream without a result.
func streamSolve(w http.ResponseWriter, run *obs.Run, solve func() (response, bool)) {
	fl, ok := sseStart(w)
	if !ok {
		// Admission was already paid; solve anyway and discard the stream.
		solve()
		return
	}
	ch, cancelSub := run.SubscribeBounds(64)
	defer cancelSub()
	type reply struct {
		resp response
		ran  bool
	}
	done := make(chan reply, 1)
	go func() {
		resp, ran := solve()
		done <- reply{resp, ran}
	}()
	for ev := range ch {
		if writeSSE(w, fl, sseEventBound, ev) != nil {
			// Client went away: the layered context cancels the solve at
			// its next level boundary; keep draining events until Finish.
			break
		}
	}
	if rep := <-done; rep.ran {
		_ = writeSSE(w, fl, sseEventResult, rep.resp)
	}
}

// streamCached serves a result-cache hit in streaming form: one bound event
// carrying the entry's final corridor precedes the terminal result event,
// so clients see the same protocol shape whether or not the solve actually
// ran. For an exact entry the corridor is collapsed (lb == ub == diameter);
// an approximate entry keeps its honest open corridor [diameter, upper].
func streamCached(w http.ResponseWriter, resp response) {
	fl, ok := sseStart(w)
	if !ok {
		return
	}
	_ = writeSSE(w, fl, sseEventBound, obs.BoundEvent{
		LB: int64(resp.Diameter), UB: int64(resp.Upper), WitnessA: resp.WitnessA, WitnessB: resp.WitnessB,
	})
	_ = writeSSE(w, fl, sseEventResult, resp)
}
