package bench

import (
	"testing"

	"fdiam/internal/core"
)

// quickEccBFSCeiling is the most eccentricity BFS each Quick-scale row may
// take at Workers=1. The grid and road rows stay this low only while Winnow
// is centred at the sweep midpoint (their max-degree vertex lies far
// off-centre), and while the main loop visits the survivors nearest that
// centre first: their large Eliminate balls remove the outer survivors
// before the scan reaches them.
var quickEccBFSCeiling = map[string]int64{
	"2d-2e20.sym":      4,
	"amazon0601":       5,
	"as-skitter":       16,
	"citationCiteSeer": 3,
	"cit-Patents":      4,
	"coPapersDBLP":     27,
	"delaunay_n24":     3,
	"europe_osm":       6,
	"in-2004":          8,
	"internet":         4,
	"kron_g500-logn21": 6,
	"rmat16.sym":       3,
	"rmat22.sym":       14,
	"soc-LiveJournal1": 90,
	"uk-2002":          4,
	"USA-road-d.NY":    9,
	"USA-road-d.USA":   5,
}

func TestQuickCatalogEccBFSCeiling(t *testing.T) {
	cat := Catalog(Quick)
	if len(cat) != len(quickEccBFSCeiling) {
		t.Fatalf("catalog has %d rows, ceiling table %d", len(cat), len(quickEccBFSCeiling))
	}
	for _, w := range cat {
		ceiling, ok := quickEccBFSCeiling[w.Name]
		if !ok {
			t.Errorf("%s: no ceiling recorded", w.Name)
			continue
		}
		res := core.Diameter(w.Graph(), core.Options{Workers: 1})
		w.Release()
		if got := res.Stats.EccBFS; got > ceiling {
			t.Errorf("%s: %d eccentricity BFS, ceiling %d", w.Name, got, ceiling)
		}
	}
}

// TestQuickCatalogSameResultAtEveryWorkerCount: every witness core reads
// off a BFS level is that level's lowest id, so Workers=1 and Workers=2
// return the identical Result on every Quick row — diameter, corridor,
// witness pair and every Stats count; only durations may differ.
func TestQuickCatalogSameResultAtEveryWorkerCount(t *testing.T) {
	countsOnly := func(r core.Result) core.Result {
		st := &r.Stats
		st.TimeInit, st.TimeEcc, st.TimeWinnow, st.TimeChain, st.TimeEliminate, st.TimeTotal = 0, 0, 0, 0, 0, 0
		return r
	}
	for _, w := range Catalog(Quick) {
		g := w.Graph()
		one := countsOnly(core.Diameter(g, core.Options{Workers: 1}))
		two := countsOnly(core.Diameter(g, core.Options{Workers: 2}))
		w.Release()
		if one != two {
			t.Errorf("%s: Workers=1 and Workers=2 differ:\n%+v\n%+v", w.Name, one, two)
		}
	}
}
