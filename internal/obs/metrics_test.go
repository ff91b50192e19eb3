package obs_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"fdiam/internal/core"
	"fdiam/internal/obs"
)

// promMetric is one metric family parsed back out of the text exposition:
// the (unescaped) HELP text, the TYPE, and every sample line keyed by its
// full series name including labels.
type promMetric struct {
	help, typ string
	samples   map[string]float64
	order     []string // sample keys in exposition order
}

// value returns the family's single unlabeled sample (counters/gauges).
func (m promMetric) value() int64 {
	return int64(m.samples[""])
}

// unescapeHelp reverses the exporter's HELP escaping (\\ and \n).
func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseProm is a minimal Prometheus text-format (0.0.4) parser: it demands
// the exact "# HELP name text", "# TYPE name type" header the exporter
// writes followed by that family's samples (TYPE before any sample, samples
// contiguous per family, histogram samples restricted to the conventional
// _bucket/_sum/_count suffixes, each series appearing once).
func parseProm(t *testing.T, text string) map[string]promMetric {
	t.Helper()
	out := map[string]promMetric{}
	var curName string
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			if strings.Contains(parts[1], "\n") {
				t.Fatalf("line %d: unescaped newline in HELP: %q", i+1, line)
			}
			curName = parts[0]
			if _, dup := out[curName]; dup {
				t.Fatalf("line %d: duplicate family %q", i+1, curName)
			}
			out[curName] = promMetric{help: unescapeHelp(parts[1]), samples: map[string]float64{}}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || parts[0] != curName {
				t.Fatalf("line %d: TYPE does not follow its HELP: %q", i+1, line)
			}
			if parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram" {
				t.Fatalf("line %d: unknown type %q", i+1, parts[1])
			}
			m := out[curName]
			m.typ = parts[1]
			out[curName] = m
		default:
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			series, valText := line[:sp], line[sp+1:]
			m, ok := out[curName]
			if !ok || m.typ == "" {
				t.Fatalf("line %d: sample before HELP/TYPE: %q", i+1, line)
			}
			// The series must belong to the current family: the bare name
			// (optionally labeled) for counters/gauges, the _bucket/_sum/
			// _count suffixes for histograms.
			base := series
			if b := strings.IndexByte(series, '{'); b >= 0 {
				if !strings.HasSuffix(series, "}") {
					t.Fatalf("line %d: unterminated label set: %q", i+1, line)
				}
				base = series[:b]
			}
			suffix := strings.TrimPrefix(base, curName)
			switch m.typ {
			case "histogram":
				if suffix != "_bucket" && suffix != "_sum" && suffix != "_count" {
					t.Fatalf("line %d: histogram sample %q not in family %q", i+1, series, curName)
				}
			default:
				if suffix != "" {
					t.Fatalf("line %d: sample %q not in family %q", i+1, series, curName)
				}
			}
			v, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				t.Fatalf("line %d: bad sample value: %q", i+1, line)
			}
			key := strings.TrimPrefix(series, curName)
			if _, dup := m.samples[key]; dup {
				t.Fatalf("line %d: duplicate series %q", i+1, series)
			}
			m.samples[key] = v
			m.order = append(m.order, key)
			out[curName] = m
		}
	}
	return out
}

func TestMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("fdiam_test_ops_total", "operations performed")
	g := reg.Gauge("fdiam_test_depth", "current depth")
	c.Add(41)
	c.Inc()
	g.Set(100)
	g.Add(-58)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	ms := parseProm(t, buf.String())
	if len(ms) != 2 {
		t.Fatalf("parsed %d series, want 2:\n%s", len(ms), buf.String())
	}
	if m := ms["fdiam_test_ops_total"]; m.typ != "counter" || m.value() != 42 || m.help != "operations performed" {
		t.Errorf("counter round-trip = %+v", m)
	}
	if m := ms["fdiam_test_depth"]; m.typ != "gauge" || m.value() != 42 || m.help != "current depth" {
		t.Errorf("gauge round-trip = %+v", m)
	}
}

func TestHelpEscapingRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	help := "path C:\\graphs\nsecond line"
	reg.Counter("fdiam_test_escaped_total", help).Inc()

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	ms := parseProm(t, buf.String())
	if got := ms["fdiam_test_escaped_total"].help; got != help {
		t.Errorf("HELP round-trip = %q, want %q", got, help)
	}
}

func TestHistogramExpositionRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.ArmHistograms(true)
	// Unit-scale buckets le=1,2,4,8,+Inf keep the expected cumulative
	// counts easy to state exactly.
	opts := obs.HistogramOpts{MinPow: 0, MaxPow: 3, Scale: 1}
	h := reg.HistogramLabels("fdiam_test_seconds", "observed \"durations\"", opts,
		"route", `up\down`, "outcome", "ok")
	for _, v := range []int64{1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	other := reg.HistogramLabels("fdiam_test_seconds", "observed \"durations\"", opts,
		"route", `up\down`, "outcome", "error")
	other.Observe(4)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	ms := parseProm(t, text)
	fam, ok := ms["fdiam_test_seconds"]
	if !ok || fam.typ != "histogram" {
		t.Fatalf("histogram family missing or mistyped:\n%s", text)
	}
	if fam.help != `observed "durations"` {
		t.Errorf("histogram HELP = %q", fam.help)
	}

	labels := `route="up\\down",outcome="ok"`
	want := map[string]float64{
		`_bucket{` + labels + `,le="1"}`:    1,
		`_bucket{` + labels + `,le="2"}`:    2,
		`_bucket{` + labels + `,le="4"}`:    3, // 3 clamps up into le=4
		`_bucket{` + labels + `,le="8"}`:    4,
		`_bucket{` + labels + `,le="+Inf"}`: 5, // 100 overflows
		`_sum{` + labels + `}`:              111,
		`_count{` + labels + `}`:            5,
	}
	for key, wv := range want {
		if gv, ok := fam.samples[key]; !ok || gv != wv {
			t.Errorf("sample %q = %v (present=%v), want %v", key, gv, ok, wv)
		}
	}
	errLabels := `route="up\\down",outcome="error"`
	if gv := fam.samples[`_count{`+errLabels+`}`]; gv != 1 {
		t.Errorf("second labeled instance count = %v, want 1", gv)
	}

	// Cumulative bucket counts must be nondecreasing in exposition order
	// within each instance, and +Inf must equal _count.
	var prev float64
	for _, key := range fam.order {
		if !strings.Contains(key, labels+`,le=`) {
			continue
		}
		if fam.samples[key] < prev {
			t.Errorf("bucket series not cumulative at %q: %v < %v", key, fam.samples[key], prev)
		}
		prev = fam.samples[key]
	}
	if fam.samples[`_bucket{`+labels+`,le="+Inf"}`] != fam.samples[`_count{`+labels+`}`] {
		t.Error("le=\"+Inf\" bucket does not equal _count")
	}
}

func TestHistogramLatencyBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	reg.ArmHistograms(true)
	// Default opts: nanosecond observations exposed as seconds.
	h := reg.Histogram("fdiam_test_latency_seconds", "latency", obs.HistogramOpts{})
	h.Observe(int64(1500)) // 1.5µs → le=2048ns bucket
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `fdiam_test_latency_seconds_bucket{le="1.024e-06"} 0`) {
		t.Errorf("first bucket (2^10 ns as seconds) missing or nonzero:\n%s", text)
	}
	if !strings.Contains(text, `fdiam_test_latency_seconds_bucket{le="2.048e-06"} 1`) {
		t.Errorf("1.5µs observation not in the 2.048µs bucket:\n%s", text)
	}
	if !strings.Contains(text, `fdiam_test_latency_seconds_sum 1.5e-06`) {
		t.Errorf("sum not scaled to seconds:\n%s", text)
	}
}

func TestHistogramDisarmedAndArming(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("fdiam_test_off_seconds", "off", obs.HistogramOpts{})
	h.Observe(1000)
	if h.Count() != 0 {
		t.Error("disarmed histogram recorded an observation")
	}
	if !h.StartTimer().IsZero() {
		t.Error("disarmed StartTimer read the clock")
	}
	reg.ArmHistograms(true)
	h.Observe(1000)
	if h.Count() != 1 {
		t.Error("armed histogram did not record")
	}
	// Instruments registered after arming come up armed.
	h2 := reg.Histogram("fdiam_test_late_seconds", "late", obs.HistogramOpts{})
	if !h2.Armed() {
		t.Error("histogram registered after ArmHistograms(true) is disarmed")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a histogram under a counter name did not panic")
		}
	}()
	reg.Counter("fdiam_test_clash_total", "c")
	reg.Histogram("fdiam_test_clash_total", "h", obs.HistogramOpts{})
}

func TestRegistryIdempotentAndTypeChecked(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("x_total", "help")
	b := reg.Counter("x_total", "other help")
	if a != b {
		t.Error("re-registering a counter returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	reg.Gauge("x_total", "help")
}

func TestRunPopulatesRegistry(t *testing.T) {
	// A solver run adds its own work to the process-wide registry whether
	// or not a trace is attached, next to internal/par's dispatch
	// counters.
	traversals := func() int64 {
		var buf bytes.Buffer
		if err := obs.Default().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		ms := parseProm(t, buf.String())
		for _, name := range []string{
			"fdiam_bfs_traversals_total", "fdiam_bfs_dir_switches_total",
			"fdiam_bound_improvements_total",
			"fdiam_par_pool_dispatches_total", "fdiam_par_workers_busy",
		} {
			if _, ok := ms[name]; !ok {
				t.Errorf("default registry missing %q", name)
			}
		}
		return ms["fdiam_bfs_traversals_total"].value()
	}
	before := traversals()
	res := core.Diameter(traceGraph(), core.Options{Workers: 2})
	if got, want := traversals()-before, res.Stats.BFSTraversals(); got != want {
		t.Errorf("fdiam_bfs_traversals_total rose by %d, want Stats.BFSTraversals() = %d", got, want)
	}
}
