package analysis

import "testing"

func TestFactsMergePrefersExisting(t *testing.T) {
	f := Facts{"p.F": {Blocks: true, BlockWhy: "own summary"}}
	f.Merge(Facts{
		"p.F": {Blocks: false},
		"p.G": {Allocates: true},
	})
	if !f["p.F"].Blocks || f["p.F"].BlockWhy != "own summary" {
		t.Errorf("Merge overwrote an existing entry: %+v", f["p.F"])
	}
	if !f["p.G"].Allocates {
		t.Errorf("Merge dropped a new entry")
	}
}

func TestLookupFactStdlibTables(t *testing.T) {
	if f, ok := LookupFact(nil, "(*sync.WaitGroup).Wait"); !ok || !f.Blocks {
		t.Errorf("WaitGroup.Wait not known blocking: %+v, %v", f, ok)
	}
	if f, ok := LookupFact(nil, "time.Now"); !ok || !f.Allocates {
		t.Errorf("time.Now not known allocating: %+v, %v", f, ok)
	}
	// Deps take precedence over the tables.
	deps := Facts{"time.Now": {Allocates: false}}
	if f, _ := LookupFact(deps, "time.Now"); f.Allocates {
		t.Errorf("dep fact did not shadow the stdlib table")
	}
	if _, ok := LookupFact(nil, "(*sync.Mutex).Lock"); ok {
		t.Errorf("Mutex.Lock must not be in the blocking table (see facts.go rationale)")
	}
}
