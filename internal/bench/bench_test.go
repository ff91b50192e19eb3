package bench

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func quickCfg() Config {
	return Config{Runs: 1, Timeout: 5 * time.Second, Workers: 0}
}

// tinyCatalog trims the Quick catalog to a few representative entries so
// unit tests stay fast while covering all code paths.
func tinyCatalog(t *testing.T) []*Workload {
	t.Helper()
	all := Catalog(Quick)
	names := map[string]bool{"2d-2e20.sym": true, "rmat16.sym": true, "USA-road-d.NY": true}
	var out []*Workload
	for _, w := range all {
		if names[w.Name] {
			out = append(out, w)
		}
	}
	if len(out) != len(names) {
		t.Fatalf("tiny catalog incomplete: %d", len(out))
	}
	return out
}

func TestCatalogComplete(t *testing.T) {
	for _, scale := range []Scale{Quick, Full} {
		ws := Catalog(scale)
		if len(ws) != 17 {
			t.Fatalf("catalog has %d workloads, want 17", len(ws))
		}
		seen := map[string]bool{}
		for _, w := range ws {
			if seen[w.Name] {
				t.Errorf("duplicate workload %s", w.Name)
			}
			seen[w.Name] = true
			if w.Paper.Vertices <= 0 || w.Paper.Edges <= 0 {
				t.Errorf("%s: missing paper Table 1 data", w.Name)
			}
			if w.Paper.FDiamSer <= 0 || w.Paper.FDiamPar <= 0 {
				t.Errorf("%s: missing paper Table 2 F-Diam data", w.Name)
			}
			if w.Paper.BFSFDiam <= 0 {
				t.Errorf("%s: missing paper Table 3 data", w.Name)
			}
			if w.Paper.PctWinnow <= 0 {
				t.Errorf("%s: missing paper Table 4 data", w.Name)
			}
		}
	}
}

func TestCatalogQuickGraphsBuildAndValidate(t *testing.T) {
	for _, w := range Catalog(Quick) {
		g := w.Graph()
		if g.NumVertices() < 256 {
			t.Errorf("%s: implausibly small stand-in (n=%d)", w.Name, g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if g2 := w.Graph(); g2 != g {
			t.Errorf("%s: Graph() not cached", w.Name)
		}
		w.Release()
	}
}

func TestCatalogTopologyClasses(t *testing.T) {
	// The stand-ins must reproduce the defining property of their class.
	cat := Catalog(Quick)
	// Road maps: low average degree.
	for _, name := range []string{"europe_osm", "USA-road-d.NY", "USA-road-d.USA"} {
		g := Find(cat, name).Graph()
		if avg := g.AvgDegree(); avg > 3.5 {
			t.Errorf("%s: avg degree %.1f too high for a road map", name, avg)
		}
	}
	// Kronecker: isolated vertices and extreme skew.
	kron := Find(cat, "kron_g500-logn21").Graph()
	deg0 := 0
	for v := 0; v < kron.NumVertices(); v++ {
		if kron.Degree(uint32(v)) == 0 {
			deg0++
		}
	}
	if deg0 == 0 {
		t.Error("kron stand-in has no isolated vertices")
	}
	// Power-law graphs: hub degree far above average.
	for _, name := range []string{"soc-LiveJournal1", "as-skitter", "uk-2002"} {
		g := Find(cat, name).Graph()
		if float64(g.MaxDegree()) < 5*g.AvgDegree() {
			t.Errorf("%s: degree distribution not skewed (max %d, avg %.1f)",
				name, g.MaxDegree(), g.AvgDegree())
		}
	}
	for _, w := range cat {
		w.Release()
	}
}

func TestFind(t *testing.T) {
	cat := Catalog(Quick)
	if Find(cat, "rmat16.sym") == nil {
		t.Error("Find missed an existing workload")
	}
	if Find(cat, "nope") != nil {
		t.Error("Find invented a workload")
	}
}

func TestMeasureAgreesAcrossCodes(t *testing.T) {
	g := gen.RandomConnected(3000, 2000, 21)
	cfg := quickCfg()
	var want int32 = -1
	for _, c := range MainCodes() {
		m := Measure(c, g, cfg)
		if m.TimedOut {
			t.Fatalf("%s timed out on a 3k-vertex graph", c.Name)
		}
		if want < 0 {
			want = m.Diameter
		} else if m.Diameter != want {
			t.Errorf("%s: diameter %d, others found %d", c.Name, m.Diameter, want)
		}
		if m.Throughput <= 0 {
			t.Errorf("%s: non-positive throughput", c.Name)
		}
	}
}

func TestAblationCodesAgree(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 5)
	var want int32 = -1
	for _, c := range AblationCodes(0) {
		o := c.Run(g, 0, 0)
		if want < 0 {
			want = o.Diameter
		} else if o.Diameter != want {
			t.Errorf("%s: diameter %d, want %d", c.Name, o.Diameter, want)
		}
	}
}

func TestTableRenderer(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("beta-long-name", "22")
	tb.Add("gamma") // short row
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Demo", "alpha", "beta-long-name", "value"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtOrTO(1.5, false); got != "1.500" {
		t.Errorf("fmtOrTO = %q", got)
	}
	if got := fmtOrTO(-1, false); got != "T/O" {
		t.Errorf("fmtOrTO(-1) = %q", got)
	}
	if got := fmtOrTO(1, true); got != "T/O" {
		t.Errorf("fmtOrTO(timeout) = %q", got)
	}
	if got := fmtCountOrTO(42, false); got != "42" {
		t.Errorf("fmtCountOrTO = %q", got)
	}
	if got := fmtCountOrTO(-1, false); got != "T/O" {
		t.Errorf("fmtCountOrTO(-1) = %q", got)
	}
}

func TestExperimentsEndToEndTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	cfg := quickCfg()
	var buf bytes.Buffer

	Table1(&buf, tinyCatalog(t), cfg)
	rows := MainSweep(tinyCatalog(t), cfg, nil)
	if len(rows) != 3 {
		t.Fatalf("sweep rows = %d", len(rows))
	}
	Table2(&buf, rows)
	Fig6(&buf, rows)
	Table3(&buf, tinyCatalog(t), cfg)
	Table4(&buf, tinyCatalog(t), cfg)
	Fig8(&buf, tinyCatalog(t), cfg)
	Table5(&buf, tinyCatalog(t), cfg)
	Fig9(&buf, tinyCatalog(t), cfg)

	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 6", "Table 3", "Table 4",
		"Figure 8", "Table 5", "Figure 9", "rmat16.sym", "geomean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
	// The consistency that matters: every F-Diam row in Table 2 must
	// have produced a real runtime, not T/O, at quick scale.
	if strings.Contains(out, "F-Diam(ser)  T/O") {
		t.Error("F-Diam timed out at quick scale")
	}
}

func TestFig7ThreadSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("thread sweep is slow in -short mode")
	}
	var buf bytes.Buffer
	cfg := quickCfg()
	cfg.Workers = 4
	Fig7(&buf, tinyCatalog(t), cfg)
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "threads") {
		t.Errorf("fig7 output malformed:\n%s", out)
	}
}

// TestFig7HoldsOneGraphAtATime: the thread sweep must release each graph
// after its last thread count, so a full-scale sweep never caches more
// than the graph it is measuring.
func TestFig7HoldsOneGraphAtATime(t *testing.T) {
	wls := tinyCatalog(t)
	held := 0
	for _, wl := range wls {
		build := wl.Build
		wl.Build = func() *graph.Graph {
			cached := 1 // the graph being built
			for _, other := range wls {
				if other.graph != nil {
					cached++
				}
			}
			held = max(held, cached)
			return build()
		}
	}
	cfg := quickCfg()
	cfg.Workers = 2
	Fig7(io.Discard, wls, cfg)
	if held > 1 {
		t.Fatalf("fig7 held %d cached graphs at once, want 1", held)
	}
	for _, wl := range wls {
		if wl.graph != nil {
			t.Errorf("%s: graph still cached after the sweep", wl.Name)
		}
	}
}

func TestMainSweepDiametersConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow in -short mode")
	}
	rows := MainSweep(tinyCatalog(t), quickCfg(), nil)
	for _, r := range rows {
		var want int32 = -1
		for i, m := range r.Results {
			if m.TimedOut {
				continue
			}
			if want < 0 {
				want = m.Diameter
			} else if m.Diameter != want {
				t.Errorf("%s: code %d found diameter %d, others %d",
					r.Workload.Name, i, m.Diameter, want)
			}
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions are slow in -short mode")
	}
	cfg := quickCfg()
	var buf bytes.Buffer
	TableDirOpt(&buf, tinyCatalog(t), cfg)
	if out := buf.String(); !strings.Contains(out, "direction-optimized") {
		t.Errorf("extension output missing the direction-optimized table:\n%s", out)
	}
}

func TestTableRenderGolden(t *testing.T) {
	tb := NewTable("T", "name", "v1", "v2")
	tb.Add("a", "1", "2")
	tb.Add("bb", "33", "444")
	var buf bytes.Buffer
	tb.Render(&buf)
	want := "T\n" +
		"  name  v1   v2\n" +
		"  ---------------\n" +
		"  a      1    2\n" +
		"  bb    33  444\n" +
		"\n"
	if buf.String() != want {
		t.Errorf("golden mismatch:\n got: %q\nwant: %q", buf.String(), want)
	}
}

func TestTwoSweepAndApproxExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	cfg := quickCfg()
	var buf bytes.Buffer
	small := tinyCatalog(t)[1:2] // rmat16.sym only
	TableTwoSweep(&buf, small, cfg)
	TableApprox(&buf, small, cfg)
	out := buf.String()
	for _, want := range []string{"2-sweep", "4-sweep", "approximation mode", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NO") {
		t.Errorf("exact diameter outside the approximation corridor:\n%s", out)
	}
}

func TestCodeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range MainCodes() {
		if seen[c.Name] {
			t.Errorf("duplicate code name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Run == nil {
			t.Errorf("%q has no Run func", c.Name)
		}
	}
	for _, c := range AblationCodes(0) {
		if c.Run == nil {
			t.Errorf("ablation %q has no Run func", c.Name)
		}
	}
}

func TestWorkloadGraphCachingConcurrent(t *testing.T) {
	w := Find(Catalog(Quick), "rmat16.sym")
	defer w.Release()
	var wg sync.WaitGroup
	graphs := make([]*graph.Graph, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = w.Graph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent Graph() returned different instances")
		}
	}
}
