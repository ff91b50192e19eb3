// Dependency half of the cross-package fact-propagation fixture: this
// package's summaries are built first and handed to the dependent
// package (factuse), as cmd/fdiamlint hands each package's summaries to
// the packages analyzed after it.
package factdep

// Alloc allocates: the Allocates fact must reach the dependent package.
func Alloc(n int) []int { return make([]int, n) }

// Wait blocks: the Blocks fact must reach the dependent package.
func Wait(c chan int) int { return <-c }

// Chain blocks only transitively through Wait, so the dependent package
// also depends on this package's own fixpoint having run.
func Chain(c chan int) int { return Wait(c) }

// Pure neither blocks nor allocates.
func Pure(a, b int) int { return a + b }
