// Package par stands in for fdiam/internal/par: the parallel-for
// implementation is the one package allowed to spawn goroutines, so
// nothing here is flagged.
package par

import "sync"

func dispatch(workers int, body func()) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	wg.Wait()
}
