package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// spec names one metric of BENCHMARK.json with its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports in its result
// line, on every workload. An operation is one solve on solve-* and one
// request on serve-mixed. Latencies and the workload-specific figures are
// printed but not in the result line: across runs on a shared 2-core host
// they spread wider than a useful bound. ops_per_s is printed only: it is
// solve_vps divided by the run's mean vertices per operation, so it moves
// only with solve_vps.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"solve_vps", "vertices/s"},
}

// perLayer lists the metrics every traced run reports, on every workload.
// A layer a workload does not exercise reads 0.
var perLayer = []spec{
	{"core.init_ms", "ms"},
	{"core.ecc_ms", "ms"},
	{"core.winnow_ms", "ms"},
	{"core.chain_ms", "ms"},
	{"core.eliminate_ms", "ms"},
	{"core.other_ms", "ms"},
	{"core.ecc_bfs", "count"},
	{"core.ecc_bfs.par_min", "count"},
	{"core.ecc_bfs.par_max", "count"},
	{"core.winnow_calls", "count"},
	{"core.eliminate_calls", "count"},
	{"core.eliminate_visited", "count"},
	{"core.bound_improvements", "count"},
	{"core.msbfs_batches", "count"},
	{"core.msbfs_sources", "count"},
	{"core.msbfs_useful_ratio", "ratio"},
	{"core.bfs_levels", "count"},
	{"bfs.ecc_ms", "ms"},
	{"bfs.ecc_ms.w1", "ms"},
	{"bfs.levels", "count"},
	{"bfs.dir_switches", "count"},
	{"bfs.share", "ratio"},
	{"par.speedup", "x"},
	{"par.dispatches", "count"},
	{"par.spawn_fallbacks", "count"},
	{"par.dispatch_wait_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.csr_mb", "MiB"},
	{"graphio.parse_ms.text", "ms"},
	{"graphio.parse_ms.binary", "ms"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.graph_hit_ratio", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.solve_ms.p50", "ms"},
	{"serve.overhead_ms.p50", "ms"},
	{"serve.approx_solve_ms.p50", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"self_ms.bench", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.bfs", "ms"},
	{"self_ms.graph", "ms"},
	{"self_ms.graphio", "ms"},
	{"self_ms.http", "ms"},
	{"self_ms.serve", "ms"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics in print order, plus the operation
// tally the result line carries.
type report struct {
	names     []string
	values    map[string]metric
	notes     map[string]string
	attempted int64
	failed    int64
	firstErr  error
}

func newReport() *report {
	return &report{values: map[string]metric{}, notes: map[string]string{}}
}

// add records a metric; note, when given, is printed beside it.
func (r *report) add(name string, v float64, unit string, note ...string) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{v, unit}
	if len(note) > 0 {
		r.notes[name] = note[0]
	}
}

// tally counts one checked operation.
func (r *report) tally(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints every metric by name and unit, then the result line with
// exactly the metrics of want (0 for a layer the workload did not reach).
func (r *report) write(w io.Writer, want []spec) error {
	for _, s := range want {
		if _, ok := r.values[s.name]; !ok {
			r.add(s.name, 0, s.unit, "not exercised by this workload")
		}
	}
	for _, n := range r.names {
		m := r.values[n]
		line := fmt.Sprintf("%-28s %14.6g %s", n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metric{}}
	for _, s := range want {
		m := r.values[s.name]
		m.Unit = s.unit
		res.Metrics[s.name] = m
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank p-quantile of xs, 0 for none.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)))-1, 0)
}

// beyond is the number of samples above the p-quantile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) - 1 }

// minSamples is the smallest sample count that leaves at least ten samples
// beyond the p-quantile, so p is a tail in the benchmark's sense.
func minSamples(p float64) int {
	n := 11
	for beyond(n, p) < 10 {
		n++
	}
	return n
}

// ladder is where addTail looks for the highest percentile with ten
// samples beyond it when the caller fixes none.
var ladder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// addTail reports name's tail at percentile p (0: the highest ladder
// percentile the sample count allows) with the sample count. A tail with
// fewer than ten samples beyond it is reported as 0 and flagged.
func (r *report) addTail(name string, xs []float64, p float64, unit string) {
	if p == 0 {
		p = ladder[len(ladder)-1]
		for _, q := range ladder {
			if beyond(len(xs), q) >= 10 {
				p = q
				break
			}
		}
	}
	note := fmt.Sprintf("p%g, n=%d, %d beyond", 100*p, len(xs), beyond(len(xs), p))
	v := quantile(xs, p)
	if beyond(len(xs), p) < 10 {
		note = fmt.Sprintf("undefined: n=%d leaves fewer than 10 samples beyond p%g", len(xs), 100*p)
		v = 0
	}
	r.add(name+".tail", v, unit, note)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of positive xs, 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
