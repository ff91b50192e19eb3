// Package core is the lint negative control: a deliberately broken package,
// in its own nested module so the root ./... patterns never see it, that
// the analyzers must fail. Each function below violates one of the
// interprocedural rules; TestNegativeFixture (cmd/fdiamlint) pins every
// finding, crosspkg.go's included. If a refactor of the fact substrate or
// the driver silently stops detecting one of these shapes, this fixture
// is the tripwire.
package core

import (
	"context"
	"time"
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

// kernel outsources its allocation to a helper one call away — invisible
// to syntactic hotalloc, flagged by deepalloc via the Allocates fact.
//
//fdiam:hotpath
func kernel(n int) []int32 {
	return scratch(n)
}

func scratch(n int) []int32 {
	return make([]int32, n)
}

// Solve receives a ctx, blocks, and never consults it: ctxflow rule C.
func Solve(ctx context.Context, c chan int32) int32 {
	time.Sleep(time.Millisecond)
	return <-c
}
