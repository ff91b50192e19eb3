package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// ChromeTracer writes the event stream as a Chrome trace-event JSON array
// (the "JSON Array Format" of the Trace Event spec), loadable in Perfetto
// or chrome://tracing. Span begin/end map to "B"/"E" duration events,
// levels to "X" complete events, instants to "i" — all on one pid/tid
// track, which is exact because the solver orchestrates on one goroutine
// and parallelizes inside traversals.
type ChromeTracer struct {
	w *bufio.Writer
	n int // events written so far
}

// NewChromeTracer creates a tracer streaming to w. Close writes the
// closing bracket and flushes; the caller owns w itself.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	return &ChromeTracer{w: bufio.NewWriter(w)}
}

// chromeEvent is the wire format of one trace event.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds
	Dur  *float64         `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	S    string           `json:"s,omitempty"` // instant scope
	Args map[string]int64 `json:"args,omitempty"`
}

func micros(d int64) float64 { return float64(d) / 1e3 } // ns → µs

// Emit appends one event to the JSON array.
func (t *ChromeTracer) Emit(e Event) {
	ce := chromeEvent{
		Name: e.Name,
		Cat:  e.Cat,
		TS:   micros(e.TS.Nanoseconds()),
		PID:  1,
		TID:  1,
	}
	switch e.Kind {
	case KindBegin:
		ce.Ph = "B"
	case KindEnd:
		ce.Ph = "E"
	case KindInstant:
		ce.Ph = "i"
		ce.S = "t"
	case KindComplete:
		ce.Ph = "X"
		dur := micros(e.Dur.Nanoseconds())
		ce.Dur = &dur
	}
	if len(e.Args) > 0 {
		ce.Args = make(map[string]int64, len(e.Args))
		for _, a := range e.Args {
			ce.Args[a.Key] = a.Val
		}
	}
	b, err := json.Marshal(ce)
	if err != nil {
		return // unreachable: chromeEvent marshals by construction
	}
	// bufio errors are sticky; Close surfaces them via Flush.
	if t.n == 0 {
		_, _ = t.w.WriteString("[\n")
	} else {
		_, _ = t.w.WriteString(",\n")
	}
	t.n++
	_, _ = t.w.Write(b)
}

// Close terminates the JSON array and flushes.
func (t *ChromeTracer) Close() error {
	if t.n == 0 {
		_, _ = t.w.WriteString("[")
	}
	_, _ = t.w.WriteString("\n]\n")
	return t.w.Flush()
}
