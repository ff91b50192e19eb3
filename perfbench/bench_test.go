package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runTiny runs one workload at smoke-test sizes and returns the printed
// metrics (name → value, unit) and the result line.
func runTiny(t *testing.T, w *workload, traced bool, refOffset int32) (map[string]metric, result) {
	t.Helper()
	cfg := &config{seed: 7, seconds: 0.2, refOffset: refOffset, spans: filepath.Join(t.TempDir(), "spans.json")}
	var out bytes.Buffer
	if err := measure(context.Background(), cfg, w, traced, &out); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]metric{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			printed[f[0]] = metric{v, f[2]}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line %q: %v", w.name, lines[len(lines)-1], err)
	}
	return printed, res
}

// TestEveryMetricPrinted runs each workload timed and traced at tiny
// sizes: every metric of BENCHMARK.json is printed with its unit, the
// result line carries exactly those metrics, and every answer is right.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads(sizes{tiny: true}) {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			printed, res := runTiny(t, w, traced, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if m, ok := printed[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: %s printed as %+v, want unit %s", w.name, traced, s.name, m, s.unit)
				}
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: result line %s = %+v, want unit %s", w.name, traced, s.name, m, s.unit)
				}
			}
			if !traced && printed["fail_ratio"] != (metric{0, "ratio"}) {
				t.Errorf("%s: fail_ratio = %+v, want 0", w.name, printed["fail_ratio"])
			}
		}
	}
}

// TestWrongReferenceFailsEverything gives the oracle references that are
// off by a large amount: every operation must then fail.
func TestWrongReferenceFailsEverything(t *testing.T) {
	for _, w := range workloads(sizes{tiny: true}) {
		printed, res := runTiny(t, w, false, 1<<20)
		if got := printed["fail_ratio"]; got.Value != 1 {
			t.Errorf("%s: fail_ratio = %v with a wrong reference, want 1", w.name, got.Value)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestSerialCountsRepeat runs the traced run twice: the counts taken from
// the Workers = 1 pass must be identical.
func TestSerialCountsRepeat(t *testing.T) {
	w := workloads(sizes{tiny: true})[0]
	a, _ := runTiny(t, w, true, 0)
	b, _ := runTiny(t, w, true, 0)
	for _, n := range []string{"core.ecc_bfs", "core.winnow_calls", "core.eliminate_calls",
		"core.eliminate_visited", "core.bound_improvements", "core.msbfs_batches", "core.msbfs_sources"} {
		if a[n] != b[n] {
			t.Errorf("%s: %v then %v", n, a[n].Value, b[n].Value)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the workloads
// and metrics this program runs and prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	ws := workloads(sizes{})
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program runs %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []spec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(c.got), len(c.want))
			continue
		}
		for i, s := range c.want {
			if c.got[i].Name != s.name || c.got[i].Unit != s.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, c.got[i].Name, c.got[i].Unit, s.name, s.unit)
			}
		}
	}
}
