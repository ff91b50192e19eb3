package core

import "negative.example/fdiam/internal/buf"

// gather allocates through a helper in another package: only the
// Allocates fact summarized from internal/buf lets deepalloc flag it.
//
//fdiam:hotpath
func gather(n int) []int32 {
	return buf.Grow(n)
}

// quiet carries a reasoned directive with nothing to suppress, which the
// driver must report as stale.
func quiet() int {
	//fdiamlint:ignore nakedgo no goroutine starts here, so this directive is stale
	return 1
}
