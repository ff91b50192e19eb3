// Package buf holds the allocating helper the negative control's
// cross-package kernel calls (see ../core/crosspkg.go).
package buf

// Grow allocates; its Allocates fact is all the core package sees of it.
func Grow(n int) []int32 {
	return make([]int32, n)
}
