package obs

import (
	"sync"
	"time"
)

// BoundEvent is one tightening of the solver's diameter corridor: after the
// event, the exact diameter lies in [LB, UB] and some shortest path of
// length LB runs between the witness pair. The corridor is the paper's
// central invariant made streamable — each main-loop step either raises LB
// (a new eccentricity) or shrinks the candidate set that keeps UB honest,
// and the final event has LB == UB.
type BoundEvent struct {
	LB int64 `json:"lb"`
	// UB is the best proven upper bound, or -1 while none is known yet.
	UB       int64 `json:"ub"`
	WitnessA int64 `json:"witness_a"`
	WitnessB int64 `json:"witness_b"`
	// ElapsedNS is nanoseconds since the run started.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// boundSubs is the per-run subscription fan-out. Kept separate from the
// Run's event mutex: publishing must never contend with sink emission.
type boundSubs struct {
	mu     sync.Mutex
	subs   []chan BoundEvent
	closed bool
	last   BoundEvent
	seen   bool
}

// SubscribeBounds registers a corridor subscriber with the given channel
// buffer (min 1) and returns the receive side plus a cancel function
// (idempotent; also implied by Run.Finish, which closes every subscriber).
// If a bound event was already published, it is replayed immediately so
// late subscribers see the current corridor. Slow receivers never block the
// solver: when a buffer is full the oldest pending event is dropped —
// intermediate corridor states are disposable, the monotone latest one is
// what matters.
//
// A nil run returns a closed channel: streaming from nothing terminates
// immediately rather than hanging.
func (r *Run) SubscribeBounds(buf int) (<-chan BoundEvent, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan BoundEvent, buf)
	if r == nil {
		close(ch)
		return ch, func() {}
	}
	b := &r.bounds
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if b.seen {
		ch <- b.last
	}
	b.subs = append(b.subs, ch)
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			for i, c := range b.subs {
				if c == ch {
					b.subs = append(b.subs[:i], b.subs[i+1:]...)
					close(c)
					return
				}
			}
		})
	}
	return ch, cancel
}

// PublishBounds fans a corridor tightening out to every subscriber and
// records its lower bound for the progress line (ub < 0 means "no upper
// bound yet"). Nil-safe; with no subscribers it is one atomic store and a
// mutex round-trip, and it never blocks on a slow receiver.
func (r *Run) PublishBounds(lb, ub int64, witnessA, witnessB int64) {
	if r == nil {
		return
	}
	r.prog.bound.Store(lb)
	ev := BoundEvent{LB: lb, UB: ub, WitnessA: witnessA, WitnessB: witnessB,
		ElapsedNS: int64(time.Since(r.start))}
	b := &r.bounds
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.last, b.seen = ev, true
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
			// Full buffer: drop the oldest pending event, then retry once.
			// We hold the only send side, so at most the receiver races us
			// for the stale element — either way a slot frees up.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

// closeBoundSubs closes every subscriber channel; called by Finish so bound
// streams terminate when the run does.
func (r *Run) closeBoundSubs() {
	b := &r.bounds
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, ch := range b.subs {
		close(ch)
	}
	b.subs = nil
}
