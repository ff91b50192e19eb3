// Package core is the lint negative control: a deliberately broken package,
// in its own nested module so the root ./... patterns never see it, that
// the analyzers must fail. Each function below violates the rule of one
// analyzer, and quiet carries a stale directive; TestNegativeFixture
// (cmd/fdiamlint) pins every finding. If a refactor of the driver silently
// stops detecting one of these shapes, this fixture is the tripwire.
package core

import (
	"log/slog"
	"os"
)

type solver struct {
	ecc   []int32
	stage []uint8
	bound int32
	ubCap int32
}

// clobberLB overwrites the lower bound non-monotonically outside any
// //fdiam:boundsetter function: boundmono must flag the write.
func (s *solver) clobberLB(v int32) {
	s.bound = v
}

// kernel allocates per call inside a hot path: hotalloc must flag it.
//
//fdiam:hotpath
func kernel(n int) []int32 {
	return make([]int32, n)
}

// cleanup drops os.Remove's error: errdrop must flag it.
func cleanup(path string) {
	os.Remove(path)
}

// report logs with a camelCase key: logkeys must flag it.
func report(n int) {
	slog.Info("solved", "vertexCount", n)
}

// quiet carries a reasoned directive with nothing to suppress, which the
// driver must report as stale.
func quiet() int {
	//fdiamlint:ignore errdrop no call here drops an error, so this directive is stale
	return 1
}
