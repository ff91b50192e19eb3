package core

// Centre-step tests: after the 2-sweep, a visibly off-centre u hands
// Winnow and the survivor scan to the midpoint m of a w–z diameter path,
// when m's ⌊bound/2⌋ ball is the larger one.

import (
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// solveWhitebox runs a Workers=1 solve and returns its solver state.
func solveWhitebox(t *testing.T, g *graph.Graph) *solver {
	t.Helper()
	s := newSolver(g, Options{Workers: 1})
	if res := s.run(); res.Cancelled {
		t.Fatal("solve cancelled")
	}
	return s
}

// sweepsBeforeLoop counts the eccentricities computed before the main
// loop: the computed vertices its scan list does not hold.
func sweepsBeforeLoop(s *solver) int64 {
	loop := int64(0)
	for _, v := range s.order {
		if s.stage[v] == StageComputed {
			loop++
		}
	}
	return s.stats.Computed - loop
}

// TestCentreStepWinnowsGridFromItsCentre: a square grid's u sits on the
// boundary, so the gate opens. The alternating walk ends on the diagonal's
// middle, whose ball covers the whole grid but for the computed vertices.
func TestCentreStepWinnowsGridFromItsCentre(t *testing.T) {
	const side = 64
	g := gen.Grid2D(side, side) // vertex y*side + x
	s := solveWhitebox(t, g)
	if s.bound != 2*(side-1) {
		t.Fatalf("diameter %d, want %d", s.bound, 2*(side-1))
	}
	if s.start == g.MaxDegreeVertex() {
		t.Fatalf("Winnow centred at u = %d: the centre step did not take over", s.start)
	}
	// The geometric centre is (31.5, 31.5): one step from it means both
	// coordinates in {31, 32}.
	x, y := int(s.start)%side, int(s.start)/side
	if x < side/2-1 || x > side/2 || y < side/2-1 || y > side/2 {
		t.Fatalf("Winnow centred at (%d, %d), more than one step from the grid's centre", x, y)
	}
	if got := s.stats.RemovedWinnow + s.stats.Computed; got != int64(g.NumVertices()) {
		t.Fatalf("Winnow removed %d and %d were computed, of %d vertices",
			s.stats.RemovedWinnow, s.stats.Computed, g.NumVertices())
	}
	if got := sweepsBeforeLoop(s); got != 3 {
		t.Fatalf("%d eccentricities before the main loop, want 3 (u, w, m)", got)
	}
}

// TestCentreStepBallRuleKeepsU: on this road stand-in the gate opens and m
// is evaluated, but u's ball holds at least as many vertices, so Winnow
// stays at u.
func TestCentreStepBallRuleKeepsU(t *testing.T) {
	g := gen.RoadNetwork(60, 60, 0.2, 1)
	s := solveWhitebox(t, g)
	if got := sweepsBeforeLoop(s); got != 3 {
		t.Fatalf("%d eccentricities before the main loop, want 3: the gate stayed closed", got)
	}
	if s.start != g.MaxDegreeVertex() {
		t.Fatalf("Winnow centred at %d, want u = %d", s.start, g.MaxDegreeVertex())
	}
}

// TestCentreStepGateClosedOnHub: a hub-and-whiskers graph's u is already
// central (2·ecc(u) ≤ ecc(w) + 2), so the 2-sweep runs alone and Winnow
// stays at u. So does the "no 'u'" ablation's start, gate or not.
func TestCentreStepGateClosedOnHub(t *testing.T) {
	g := gen.CoreWhiskers(4000, 4, 0.3, 8, 2)
	s := solveWhitebox(t, g)
	if got := sweepsBeforeLoop(s); got != 2 {
		t.Fatalf("%d eccentricities before the main loop, want the 2-sweep's 2", got)
	}
	if s.start != g.MaxDegreeVertex() {
		t.Fatalf("Winnow centred at %d, want u = %d", s.start, g.MaxDegreeVertex())
	}

	grid := gen.Grid2D(64, 64)
	noU := newSolver(grid, Options{Workers: 1, StartAtVertexZero: true})
	noU.run()
	if noU.start != 0 || sweepsBeforeLoop(noU) != 2 {
		t.Fatalf("StartAtVertexZero: Winnow at %d after %d sweeps, want 0 after 2",
			noU.start, sweepsBeforeLoop(noU))
	}
}
