package core

// Scan-order tests: the main loop walks the survivors of Winnow and Chain
// in ascending (d(start, v), v) order, and that order — like the 2-sweep
// partner it starts from — is the same at every worker count.

import (
	"slices"
	"testing"

	"fdiam/internal/bfs"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// TestSweepPartnerIsLowestIDOfLastLevel: vertex 0 is the unique
// maximum-degree vertex, and its BFS's last level is {5, 6, 7, 8}. A
// serial top-down BFS emits that level as 8, 7, 6, 5, so the partner must
// come from the level's ids, not from its emission order.
func TestSweepPartnerIsLowestIDOfLastLevel(t *testing.T) {
	g := graph.FromEdges(9, []graph.Edge{
		{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}, {A: 0, B: 4},
		{A: 1, B: 8}, {A: 2, B: 7}, {A: 3, B: 6}, {A: 4, B: 5},
	})
	e := bfs.New(g, 1)
	defer e.Close()
	e.Eccentricity(0)
	last := slices.Clone(e.LastFrontier())
	if len(last) != 4 || last[0] == 5 {
		t.Fatalf("fixture no longer discriminates: last level emitted as %v", last)
	}
	if w := sweepPartner(last); w != 5 {
		t.Fatalf("sweepPartner(%v) = %d, want 5", last, w)
	}
	for _, workers := range []int{1, 2} {
		res := Diameter(g, Options{Workers: workers})
		// The partner's BFS sets the bound 4 = ecc(5) and is its witness.
		if res.Diameter != 4 || res.WitnessA != 5 {
			t.Errorf("Workers=%d: diameter %d witness %d, want 4 from partner 5",
				workers, res.Diameter, res.WitnessA)
		}
	}
}

// TestSurvivorOrderSameAtEveryWorkerCount: the scan list depends only on
// exact distances and the Winnow/Chain state, so Workers=1 and Workers=2
// build the identical list, and it is sorted by (d(start, v), v).
func TestSurvivorOrderSameAtEveryWorkerCount(t *testing.T) {
	g := gen.RoadNetwork(128, 128, 0.40, 115)
	solve := func(workers int) *solver {
		s := newSolver(g, Options{Workers: workers})
		if res := s.run(); res.Cancelled {
			t.Fatalf("Workers=%d: solve cancelled", workers)
		}
		return s
	}
	one, two := solve(1), solve(2)
	if len(one.order) == 0 {
		t.Fatal("empty scan list: the fixture no longer reaches the main loop")
	}
	if one.start != two.start || !slices.Equal(one.order, two.order) {
		t.Fatalf("scan lists differ: Workers=1 %d entries from %d, Workers=2 %d entries from %d",
			len(one.order), one.start, len(two.order), two.start)
	}
	dist := refDist(g, one.start)
	for i := 1; i < len(one.order); i++ {
		a, b := one.order[i-1], one.order[i]
		if dist[a] > dist[b] || (dist[a] == dist[b] && a >= b) {
			t.Fatalf("order[%d..%d] = %d (dist %d), %d (dist %d): not ascending by (dist, id)",
				i-1, i, a, dist[a], b, dist[b])
		}
	}
}

// TestSurvivorOrderPutsUnreachedLast: vertices another component holds
// (dist −1) follow every reached one, in id order.
func TestSurvivorOrderPutsUnreachedLast(t *testing.T) {
	ecc := []int32{Active, Active, 3, Active, Active, Active}
	dist := []int32{2, -1, 0, 1, -1, 1}
	got := survivorOrder(ecc, dist, 2)
	want := []graph.Vertex{3, 5, 0, 1, 4}
	if !slices.Equal(got, want) {
		t.Fatalf("survivorOrder = %v, want %v", got, want)
	}
}
