package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the exposition to stay Prometheus-legal;
// this is not enforced on the hot path).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric is one registered instrument plus its exposition metadata.
type metric struct {
	name, help, typ string // typ: "counter", "gauge" or "histogram"
	counter         *Counter
	gauge           *Gauge
	fam             *histFamily
}

// histFamily groups the labeled instances sharing one histogram name: the
// exposition writes HELP/TYPE once and then every instance's bucket series.
type histFamily struct {
	opts    HistogramOpts
	byLabel map[string]*Histogram
	order   []*Histogram // insertion order, for deterministic exposition
}

func (m *metric) value() int64 {
	if m.counter != nil {
		return m.counter.Value()
	}
	return m.gauge.Value()
}

// Registry is a process-wide set of named counters, gauges and histograms
// with Prometheus text-format exposition. Registration is idempotent: asking
// for an existing name returns the existing instrument, so package-level
// instruments survive multiple runs and accumulate process totals.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// histArmed records whether ArmHistograms was called, so histogram
	// instances registered later (lazily labeled request outcomes) come up
	// armed too.
	histArmed bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// defaultRegistry backs Default(). Package-level instruments (internal/par's
// dispatch counters, every Run's BFS counters) register here so one /metrics
// endpoint exposes the whole process.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it with the
// given help text on first use. Panics if name is already a gauge — metric
// types are a program invariant, not runtime input.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.counter == nil {
			panic("obs: metric " + name + " already registered as gauge")
		}
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, help: help, typ: "counter", counter: c}
	return c
}

// Gauge returns the gauge registered under name, creating it with the given
// help text on first use. Panics if name is already a counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.gauge == nil {
			panic("obs: metric " + name + " already registered as counter")
		}
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = &metric{name: name, help: help, typ: "gauge", gauge: g}
	return g
}

// Histogram returns the (unlabeled) histogram registered under name,
// creating it with the given help text and bucket options on first use.
// Panics if name is already a counter or gauge. Registry-created histograms
// start disarmed unless ArmHistograms has been called.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	return r.HistogramLabels(name, help, opts)
}

// HistogramLabels returns the histogram instance of the family `name`
// carrying the given label pairs (alternating key, value), creating the
// family and the instance on first use. Every instance of one family shares
// the bucket options of its first registration. Label values are escaped at
// registration time, so the record path never touches them.
func (r *Registry) HistogramLabels(name, help string, opts HistogramOpts, kv ...string) *Histogram {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if ok {
		if m.fam == nil {
			panic("obs: metric " + name + " already registered as " + m.typ)
		}
	} else {
		m = &metric{name: name, help: help, typ: "histogram",
			fam: &histFamily{opts: opts.withDefaults(), byLabel: make(map[string]*Histogram)}}
		r.metrics[name] = m
	}
	if h, ok := m.fam.byLabel[labels]; ok {
		return h
	}
	h := newHistogram(m.fam.opts, labels, r.histArmed)
	m.fam.byLabel[labels] = h
	m.fam.order = append(m.fam.order, h)
	return h
}

// ArmHistograms arms (or disarms) every histogram registered so far and
// makes future registrations on this registry come up in the same state.
// Counters and gauges are always on — only histograms carry the arming
// distinction, because only their record sites sit on solver-side paths
// that must stay clock-free when nobody is scraping.
func (r *Registry) ArmHistograms(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histArmed = on
	for _, m := range r.metrics {
		if m.fam == nil {
			continue
		}
		for _, h := range m.fam.order {
			h.Arm(on)
		}
	}
}

// renderLabels pre-renders alternating key/value pairs as escaped
// `k="v",...` exposition text. Panics on an odd pair count — label shapes
// are program invariants, not runtime input.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value count")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeHelp escapes HELP text per the Prometheus text format: backslash
// and line feed (a raw newline would otherwise split the comment into a
// bogus sample line — the exposition bug this replaces).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text format: backslash,
// double quote, and line feed.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteText writes every registered metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name for deterministic output:
//
//	# HELP fdiam_bfs_traversals_total BFS traversals of finished solves
//	# TYPE fdiam_bfs_traversals_total counter
//	fdiam_bfs_traversals_total 1234
//
// Histograms expose the conventional triplet per labeled instance:
// cumulative `name_bucket{...,le="..."}` series ending in le="+Inf", then
// `name_sum` and `name_count`. HELP text and label values are escaped per
// the format's rules.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	// Snapshot each family's instance list under the lock; the instances
	// themselves are atomic and safely read after release.
	fams := make(map[*metric][]*Histogram, len(ms))
	for _, m := range ms {
		if m.fam != nil {
			fams[m] = append([]*Histogram(nil), m.fam.order...)
		}
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			m.name, escapeHelp(m.help), m.name, m.typ); err != nil {
			return err
		}
		if m.fam != nil {
			for _, h := range fams[m] {
				if err := writeHistogramText(w, m.name, h); err != nil {
					return err
				}
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.value()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramText writes one instance's _bucket/_sum/_count series.
func writeHistogramText(w io.Writer, name string, h *Histogram) error {
	sep := ""
	if h.labels != "" {
		sep = ","
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.counts)-1 {
			bound := float64(uint64(1)<<uint(h.minPow+i)) / h.scale
			le = strconv.FormatFloat(bound, 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n",
			name, h.labels, sep, le, cum); err != nil {
			return err
		}
	}
	sum := strconv.FormatFloat(float64(h.sum.Load())/h.scale, 'g', -1, 64)
	labels := ""
	if h.labels != "" {
		labels = "{" + h.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
		name, labels, sum, name, labels, cum); err != nil {
		return err
	}
	return nil
}
