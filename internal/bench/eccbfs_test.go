package bench

import (
	"testing"

	"fdiam/internal/core"
)

// quickEccBFSCeiling is the most eccentricity BFS each Quick-scale row may
// take at Workers=1. The grid and road rows stay this low only while the
// main loop visits the survivors nearest the 2-sweep start first: their
// large Eliminate balls remove the outer survivors before the scan
// reaches them.
var quickEccBFSCeiling = map[string]int64{
	"2d-2e20.sym":      6,
	"amazon0601":       5,
	"as-skitter":       16,
	"citationCiteSeer": 3,
	"cit-Patents":      4,
	"coPapersDBLP":     27,
	"delaunay_n24":     3,
	"europe_osm":       10,
	"in-2004":          8,
	"internet":         4,
	"kron_g500-logn21": 6,
	"rmat16.sym":       3,
	"rmat22.sym":       14,
	"soc-LiveJournal1": 90,
	"uk-2002":          4,
	"USA-road-d.NY":    14,
	"USA-road-d.USA":   13,
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
