//go:build fdiam.checked

package core

// Tests that only exist in checked builds (`go test -tags fdiam.checked`):
// they exercise the full algorithm with the invariant assertions armed, run
// the differential oracle explicitly, and — most importantly — prove the
// assertions actually fire on corrupted state, so a future refactor cannot
// silently turn them into no-ops.

import (
	"slices"
	"testing"

	"fdiam/internal/baseline"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func TestCheckedBuildTagActive(t *testing.T) {
	if !checkedBuild {
		t.Fatal("fdiam.checked build selected invariant_off.go; the tag pair is broken")
	}
}

// TestCheckedCatalog runs every feature combination over a catalog of
// adversarial shapes with assertions armed, and cross-checks the result
// against the naive baseline explicitly (checkFinal already does this
// internally; the explicit comparison keeps the test meaningful should the
// checkedDiffMaxN cap ever shrink below these sizes).
func TestCheckedCatalog(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":         gen.Path(100),
		"cycle":        gen.Cycle(101),
		"star":         gen.Star(64),
		"complete":     gen.Complete(16),
		"grid":         gen.Grid2D(12, 9),
		"tree":         gen.BinaryTree(6),
		"caterpillar":  gen.Caterpillar(30, 3),
		"lollipop":     gen.Lollipop(8, 12),
		"barbell":      gen.Barbell(6, 9),
		"disconnected": gen.Disjoint(gen.Path(17), gen.Cycle(12)),
		"chains":       gen.WithChains(gen.RandomConnected(120, 80, 42), 5, 6, 43),
		"pendants":     gen.WithPendants(gen.RandomConnected(90, 60, 44), 20, 45),
		"geometric":    gen.RandomGeometric(150, gen.RadiusForDegree(150, 4.0), 46),
	}
	opts := []Options{
		{Workers: 1},
		{},
		{DisableWinnow: true},
		{DisableEliminate: true},
		{DisableChain: true},
		{DisableWinnow: true, DisableEliminate: true, DisableChain: true},
		{StartAtVertexZero: true},
	}
	for name, g := range graphs {
		ref := baseline.Naive(g, baseline.Options{Workers: 1})
		for _, opt := range opts {
			res := Diameter(g, opt)
			if res.Diameter != ref.Diameter || res.Infinite != ref.Infinite {
				t.Errorf("%s %+v: diameter %d infinite=%v, baseline %d infinite=%v",
					name, opt, res.Diameter, res.Infinite, ref.Diameter, ref.Infinite)
			}
		}
	}
}

// TestCheckedRandomSweep hammers the armed solver with random topologies,
// including disconnected and chain-decorated ones, across worker counts.
func TestCheckedRandomSweep(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		n := 20 + int(seed%7)*25
		g := gen.RandomConnected(n, int(seed*13)%n, seed+5000)
		if seed%3 == 0 {
			g = gen.Disjoint(g, gen.RandomTree(11, seed+6000))
		}
		if seed%4 == 1 {
			g = gen.WithChains(g, 3, 4, seed+7000)
		}
		ref := baseline.Naive(g, baseline.Options{Workers: 1})
		res := Diameter(g, Options{Workers: 1 + int(seed%3)})
		if res.Diameter != ref.Diameter || res.Infinite != ref.Infinite {
			t.Fatalf("seed %d: diameter %d infinite=%v, baseline %d infinite=%v",
				seed, res.Diameter, res.Infinite, ref.Diameter, ref.Infinite)
		}
	}
}

// mustViolate runs f on a prepared solver and requires it to panic with the
// named invariant.
func mustViolate(t *testing.T, invariant string, f func(s *solver)) {
	t.Helper()
	g := gen.RandomConnected(40, 30, 99)
	s := prepSolver(g, Options{Workers: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("corrupted state did not trip invariant %q", invariant)
		}
		v, ok := r.(*InvariantViolation)
		if !ok {
			t.Fatalf("panic %v is not an InvariantViolation", r)
		}
		if v.Invariant != invariant {
			t.Fatalf("tripped %q (%s), want %q", v.Invariant, v.Detail, invariant)
		}
	}()
	f(s)
}

// TestInvariantViolationsFire corrupts solver state in targeted ways and
// requires each assertion to catch it — the proof the checked mode is not
// vacuously green.
func TestInvariantViolationsFire(t *testing.T) {
	t.Run("state-encoding", func(t *testing.T) {
		mustViolate(t, "state-encoding", func(s *solver) {
			s.stage[0] = StageWinnow // without the Winnowed sentinel in ecc
			s.checkStateConsistency("test")
		})
	})
	t.Run("stats-accounting", func(t *testing.T) {
		mustViolate(t, "stats-accounting", func(s *solver) {
			s.ecc[0] = Winnowed
			s.stage[0] = StageWinnow // consistent pair, but no counter update
			s.checkStateConsistency("test")
		})
	})
	t.Run("record-monotone", func(t *testing.T) {
		mustViolate(t, "record-monotone", func(s *solver) {
			s.checkRecord(3, 5, 7) // raising a recorded bound
		})
	})
	t.Run("record-over-winnowed", func(t *testing.T) {
		mustViolate(t, "record-monotone", func(s *solver) {
			s.checkRecord(3, Winnowed, 4)
		})
	})
	t.Run("compute-active", func(t *testing.T) {
		mustViolate(t, "compute-active", func(s *solver) {
			s.ecc[2] = 4
			s.setComputed(2, 6) // computing a removed vertex
		})
	})
	t.Run("eliminate-radius", func(t *testing.T) {
		mustViolate(t, "eliminate-radius", func(s *solver) {
			s.bound = 2
			s.setComputed(0, 1)
			s.eliminateFrom([]graph.Vertex{0}, 1, 5, StageEliminate)
		})
	})
	t.Run("eliminate-seed", func(t *testing.T) {
		mustViolate(t, "eliminate-seed", func(s *solver) {
			s.bound = 5 // seed 0 still Active: no recorded value to eliminate from
			s.eliminateFrom([]graph.Vertex{0}, 2, 5, StageEliminate)
		})
	})
	t.Run("winnow-radius", func(t *testing.T) {
		mustViolate(t, "winnow-radius", func(s *solver) {
			s.start = 0
			s.bound = 6
			s.winnowDepth = 1 // claims a ball smaller than bound/2
			s.checkWinnowBall()
		})
	})
	t.Run("winnow-ball", func(t *testing.T) {
		mustViolate(t, "winnow-ball", func(s *solver) {
			s.start = 0
			s.bound = 0 // radius 0: nothing may be winnowed
			s.winnowDepth = 0
			far := graph.Vertex(len(s.ecc) - 1)
			s.ecc[far] = Winnowed
			s.stage[far] = StageWinnow
			s.checkWinnowBall()
		})
	})
	t.Run("winnow-dist", func(t *testing.T) {
		mustViolate(t, "winnow-dist", func(s *solver) {
			s.start = 0
			s.bound = 6
			s.dist = refDist(s.g, s.start)
			s.winnow()
			far := graph.Vertex(len(s.ecc) - 1)
			s.dist[far]++ // one wrong distance
			s.checkWinnowBall()
		})
	})
	t.Run("winnow-dist-active", func(t *testing.T) {
		mustViolate(t, "winnow-dist", func(s *solver) {
			s.start = 0
			s.bound = 6
			s.dist = refDist(s.g, s.start)
			s.winnowDepth = 3 // claims the ball is done, but nothing was winnowed
			s.checkWinnowBall()
		})
	})
	t.Run("ecc-witness", func(t *testing.T) {
		mustViolate(t, "ecc-witness", func(s *solver) {
			const src = 7
			dist := refDist(s.g, src)
			ecc := slices.Max(dist)
			s.checkEcc(src, ecc, graph.Vertex(slices.Index(dist, ecc))) // the true values pass
			s.checkEcc(src, ecc, src)                                   // at distance 0, not ecc
		})
	})
	t.Run("ecc-witness-lowest", func(t *testing.T) {
		mustViolate(t, "ecc-witness", func(s *solver) {
			// A witness at the right distance that is not the lowest id.
			for src := range graph.Vertex(len(s.ecc)) {
				dist := refDist(s.g, src)
				ecc := slices.Max(dist)
				lowest := slices.Index(dist, ecc)
				if other := slices.Index(dist[lowest+1:], ecc); other >= 0 {
					s.checkEcc(src, ecc, graph.Vertex(lowest+1+other))
				}
			}
		})
	})
	t.Run("ecc-differential", func(t *testing.T) {
		mustViolate(t, "ecc-differential", func(s *solver) {
			dist := refDist(s.g, 0)
			ecc := slices.Max(dist)
			s.checkEcc(0, ecc+1, graph.Vertex(slices.Index(dist, ecc)))
		})
	})
	t.Run("diameter-differential", func(t *testing.T) {
		g := gen.RandomConnected(60, 40, 101)
		s := newSolver(g, Options{Workers: 1})
		res := s.run()
		if res.TimedOut {
			t.Fatal("unexpected timeout")
		}
		defer func() {
			r := recover()
			v, ok := r.(*InvariantViolation)
			if !ok || v.Invariant != "diameter-differential" {
				t.Fatalf("corrupted bound not caught: %v", r)
			}
		}()
		s.bound++ // a wrong final answer
		s.checkFinal(res.Infinite, false, false)
	})
}
