//go:build !fdiam.checked

package core

import "fdiam/internal/graph"

// checkedBuild gates the fdiam.checked assertion layer (DESIGN.md §8). It
// is a constant so every `if checkedBuild { ... }` call site below compiles
// to nothing in normal builds; the real checks live in invariant.go.
const checkedBuild = false

func (s *solver) checkWinnowBall() {}

func (s *solver) checkEliminatePre(seeds []graph.Vertex, startVal, limit int32, attr Stage) []int32 {
	return nil
}

func (s *solver) checkEliminateLevel(dist []int32, level int32, frontier []graph.Vertex, startVal, limit int32) {
}

func (s *solver) checkRecord(v graph.Vertex, cur, val int32) {}

func (s *solver) checkEcc(src graph.Vertex, ecc int32, wit graph.Vertex) {}

func (s *solver) checkComputeTarget(v graph.Vertex) {}

func (s *solver) checkStateConsistency(where string) {}

func (s *solver) checkFinal(infinite, cancelled, early bool) {}
