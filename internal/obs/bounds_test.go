package obs_test

import (
	"testing"
	"time"

	"fdiam/internal/obs"
)

func TestBoundSubscriptionReplayAndClose(t *testing.T) {
	r := obs.NewRun(obs.Config{})
	r.PublishBounds(3, 10, 1, 2)

	// Late subscriber sees the latest corridor immediately.
	ch, cancel := r.SubscribeBounds(4)
	defer cancel()
	select {
	case ev := <-ch:
		if ev.LB != 3 || ev.UB != 10 || ev.WitnessA != 1 || ev.WitnessB != 2 {
			t.Fatalf("replayed event = %+v", ev)
		}
	default:
		t.Fatal("no replay of the last bound event on subscribe")
	}

	r.PublishBounds(5, 8, 1, 4)
	if ev := <-ch; ev.LB != 5 || ev.UB != 8 {
		t.Fatalf("second event = %+v", ev)
	}

	// Finish closes the stream.
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("unexpected event after Finish")
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber channel not closed by Finish")
	}

	// Subscribing after Finish yields an already-closed channel.
	ch2, cancel2 := r.SubscribeBounds(1)
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("post-Finish subscription delivered an event")
	}
}

func TestBoundSubscriptionDropsOldestWhenFull(t *testing.T) {
	r := obs.NewRun(obs.Config{})
	ch, cancel := r.SubscribeBounds(1)
	defer cancel()
	for lb := int64(1); lb <= 5; lb++ {
		r.PublishBounds(lb, 10, 0, 0) // never blocks despite the full buffer
	}
	if ev := <-ch; ev.LB != 5 {
		t.Fatalf("kept event LB = %d, want the newest (5)", ev.LB)
	}
}

func TestBoundSubscriptionNilRun(t *testing.T) {
	var r *obs.Run
	r.PublishBounds(1, 2, 0, 0) // must not panic
	ch, cancel := r.SubscribeBounds(1)
	defer cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil run delivered a bound event")
	}
}

func TestSnapshotTracksPublishedBound(t *testing.T) {
	r := obs.NewRun(obs.Config{})
	if got := r.Snapshot().Bound; got != 0 {
		t.Fatalf("fresh run Bound = %d, want 0", got)
	}
	r.PublishBounds(4, 9, 7, 8)
	if got := r.Snapshot().Bound; got != 4 {
		t.Fatalf("snapshot bound = %d, want the corridor's lower edge 4", got)
	}
}
