// Package atomicfield is the golden fixture for the atomicfield analyzer.
package atomicfield

import "sync/atomic"

type job struct {
	// atomic chunk cursor shared by all workers
	cursor int64
	joined int32 // atomic participant counter
	plain  int64
}

func ok(j *job) {
	atomic.AddInt64(&j.cursor, 1)
	_ = atomic.LoadInt64(&j.cursor)
	atomic.StoreInt32(&j.joined, 0)
	j.plain++
	_ = &job{cursor: 7, plain: 1}
}

func bad(j *job) {
	j.cursor++        // want `non-atomic access to field .*cursor`
	_ = j.cursor      // want `non-atomic access to field .*cursor`
	j.cursor = 3      // want `non-atomic access to field .*cursor`
	if j.joined > 0 { // want `non-atomic access to field .*joined`
		p := &j.cursor // want `non-atomic access to field .*cursor`
		_ = p
	}
	//fdiamlint:ignore atomicfield single-threaded teardown, justified for the fixture
	j.cursor = 0
}

// addCursor takes the field's address like an atomic helper would, but it
// is not sync/atomic, so passing &j.cursor to it is a plain access.
func addCursor(p *int64, d int64) { *p += d }

func helper(j *job) {
	addCursor(&j.cursor, 1) // want `non-atomic access to field .*cursor`
}
