package core

// Checkpoint/resume tests: a solve interrupted mid-main-loop must resume
// from its snapshot to the identical exact diameter with at most one BFS of
// redone work, and every resume failure must degrade to a fresh (still
// exact) solve.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// interruptMidMainLoop runs a checkpointed solve on g and cancels it once
// the main loop is underway, retrying with growing delays until the cancel
// actually lands mid-main-loop (snapshot file present and run cancelled).
func interruptMidMainLoop(t *testing.T, g *graph.Graph, dir string) Result {
	t.Helper()
	path := filepath.Join(dir, checkpoint.FileName)
	delay := 2 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan Result, 1)
		go func() {
			done <- DiameterCtx(ctx, g, Options{
				Workers:    1,
				Checkpoint: CheckpointOptions{Dir: dir, Interval: 1},
			})
		}()
		time.Sleep(delay)
		cancel()
		res := <-done
		if res.Cancelled {
			if _, err := os.Stat(path); err == nil {
				return res
			}
			// Cancelled before the main loop (2-sweep/winnow) — no
			// snapshot by design. Let it run longer next time.
			delay *= 2
			continue
		}
		// Ran to completion before the cancel landed; a completed solve
		// removes its snapshot, so shrink the delay and retry.
		if _, err := os.Stat(path); err == nil {
			t.Fatal("completed solve left its snapshot behind")
		}
		delay /= 2
		if delay <= 0 {
			delay = time.Millisecond
		}
	}
	t.Skip("could not land a cancellation inside the main loop on this machine")
	return Result{}
}

func TestCheckpointResumeExactDiameter(t *testing.T) {
	// A road stand-in keeps the main loop long (its Winnow ball leaves
	// about 20 survivors to evaluate) so the interruption lands where
	// snapshots exist.
	g := gen.RoadNetwork(120, 120, 0.2, 7)
	fresh := Diameter(g, Options{Workers: 1})
	if fresh.Cancelled {
		t.Fatal("fresh solve cancelled")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.FileName)
	first := interruptMidMainLoop(t, g, dir)

	// The snapshot on disk must parse and validate against the graph —
	// this is the artifact a crashed process leaves behind.
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatalf("reading interruption snapshot: %v", err)
	}
	if err := snap.Validate(g); err != nil {
		t.Fatalf("interruption snapshot invalid: %v", err)
	}
	if snap.Counters.EccBFS > first.Stats.EccBFS {
		t.Fatalf("snapshot claims %d BFS, interrupted run did %d",
			snap.Counters.EccBFS, first.Stats.EccBFS)
	}

	resumed := Diameter(g, Options{
		Workers:    1,
		Checkpoint: CheckpointOptions{Dir: dir, Interval: 1, ResumeFrom: path},
	})
	if !resumed.Resumed {
		t.Fatalf("resume did not happen: %q", resumed.ResumeError)
	}
	if resumed.Cancelled {
		t.Fatal("resumed run reports cancelled")
	}
	if resumed.Diameter != fresh.Diameter {
		t.Fatalf("resumed diameter %d != fresh %d", resumed.Diameter, fresh.Diameter)
	}
	if resumed.Infinite != fresh.Infinite {
		t.Fatalf("resumed infinite %v != fresh %v", resumed.Infinite, fresh.Infinite)
	}
	// "At most one checkpoint interval of redone work": with Interval=1
	// the only BFS not in the snapshot is the one in flight when the
	// cancel landed, so the continued counter may exceed an uninterrupted
	// run's by at most that single redone traversal.
	if resumed.Stats.EccBFS > fresh.Stats.EccBFS+1 {
		t.Fatalf("resumed run did %d total BFS, fresh did %d — more than one redone",
			resumed.Stats.EccBFS, fresh.Stats.EccBFS)
	}
	if resumed.Stats.Computed != fresh.Stats.Computed {
		t.Fatalf("resumed computed %d vertices, fresh %d",
			resumed.Stats.Computed, fresh.Stats.Computed)
	}
	// A completed solve retires its snapshot.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot still present after completed resume: %v", err)
	}
}

// cancelInEliminate is a fake trace sink that raises the solver's cancel
// flag when the nth Eliminate span of the main loop opens, so the cancel
// lands inside that step deterministically: the partial BFS aborts at its
// first level boundary and the step's removals stay incomplete.
type cancelInEliminate struct {
	s      *solver
	nth    int
	inLoop bool
	seen   int
}

func (c *cancelInEliminate) Emit(e obs.Event) {
	if e.Kind != obs.KindBegin || e.Cat != "stage" {
		return
	}
	switch e.Name {
	case "main-loop":
		c.inLoop = true
	case "eliminate":
		if c.inLoop {
			if c.seen++; c.seen == c.nth {
				c.s.cancelFlag.Store(true)
			}
		}
	}
}

func (c *cancelInEliminate) Close() error { return nil }

// cancelInMainLoopEliminate runs a checkpointed (Interval 1) Workers=1
// solve of g in dir that cancels itself inside the nth main-loop Eliminate
// and returns the result and the main-loop vertex that step belonged to.
func cancelInMainLoopEliminate(t *testing.T, g *graph.Graph, dir string, nth int) (Result, graph.Vertex) {
	t.Helper()
	run := obs.NewRun(obs.Config{})
	s := newSolver(g, Options{Workers: 1, Trace: run,
		Checkpoint: CheckpointOptions{Dir: dir, Interval: 1}})
	sink := &cancelInEliminate{s: s, nth: nth}
	run.AddSink(sink)
	s.e.SetCancel(&s.cancelFlag)
	res := s.run()
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if sink.seen < nth || !res.Cancelled {
		t.Fatalf("nth=%d: saw %d main-loop eliminates, cancelled=%v", nth, sink.seen, res.Cancelled)
	}
	// The loop computes scan-list entries in list order, so the vertex in
	// flight is the last entry it computed.
	inFlight := graph.NoVertex
	for _, v := range s.order {
		if s.stage[v] == StageComputed {
			inFlight = v
		}
	}
	return res, inFlight
}

// TestCheckpointNeverRecordsCutShortEliminate: a cancel that lands inside
// the Eliminate following a main-loop BFS must not leave a snapshot that
// records the vertex as computed, because resume would never redo the rest
// of its ball and would evaluate vertices the fresh solve pruned.
func TestCheckpointNeverRecordsCutShortEliminate(t *testing.T) {
	g := gen.RoadNetwork(60, 60, 0.2, 3)
	fresh := Diameter(g, Options{Workers: 1})
	for _, nth := range []int{1, 3} {
		dir := t.TempDir()
		path := filepath.Join(dir, checkpoint.FileName)
		_, v := cancelInMainLoopEliminate(t, g, dir, nth)
		snap, err := checkpoint.Read(path)
		if err != nil {
			if nth > 1 {
				t.Fatalf("nth=%d: no snapshot from the earlier vertex boundaries: %v", nth, err)
			}
			continue // the cut-short step was the first possible snapshot point
		}
		if snap.Ecc[v] != Active {
			t.Fatalf("nth=%d: snapshot records ecc[%d]=%d; want vertex %d Active and redone",
				nth, v, snap.Ecc[v], v)
		}
		resumed := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{ResumeFrom: path}})
		if !resumed.Resumed {
			t.Fatalf("nth=%d: resume rejected: %q", nth, resumed.ResumeError)
		}
		if resumed.Diameter != fresh.Diameter || resumed.Stats.Computed != fresh.Stats.Computed {
			t.Fatalf("nth=%d: resumed (diam %d, computed %d), fresh (%d, %d)", nth,
				resumed.Diameter, resumed.Stats.Computed, fresh.Diameter, fresh.Stats.Computed)
		}
	}
}

// TestCheckpointResumeAcrossWorkerCounts: a snapshot carries no scan
// position, only the Active set, so a Workers=1 snapshot resumed at
// Workers=2 rebuilds the same scan list and finishes the same solve.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	g := gen.RoadNetwork(60, 60, 0.2, 3)
	fresh := Diameter(g, Options{Workers: 1})
	dir := t.TempDir()
	cancelInMainLoopEliminate(t, g, dir, 3)
	path := filepath.Join(dir, checkpoint.FileName)
	res := Diameter(g, Options{Workers: 2, Checkpoint: CheckpointOptions{ResumeFrom: path}})
	if !res.Resumed {
		t.Fatalf("resume rejected: %q", res.ResumeError)
	}
	if res.Diameter != fresh.Diameter || res.Stats.Computed != fresh.Stats.Computed {
		t.Fatalf("resumed at Workers=2: diameter %d computed %d; uninterrupted: %d, %d",
			res.Diameter, res.Stats.Computed, fresh.Diameter, fresh.Stats.Computed)
	}
	if res.Stats.EccBFS > fresh.Stats.EccBFS+1 {
		t.Fatalf("resumed run did %d BFS in all, uninterrupted %d: more than the one in flight redone",
			res.Stats.EccBFS, fresh.Stats.EccBFS)
	}
}

// TestResumeRejectsVersion2Snapshot: a version-2 snapshot, which still
// carried a scan position, a version-3 snapshot, which still carried a
// winnow frontier, and a version-4 snapshot, which still carried the
// chain-hub maps, are refused, and the solve degrades to an exact fresh
// one.
func TestResumeRejectsVersion2Snapshot(t *testing.T) {
	g := gen.RoadNetwork(60, 60, 0.2, 3)
	fresh := Diameter(g, Options{Workers: 1})
	dir := t.TempDir()
	cancelInMainLoopEliminate(t, g, dir, 3)
	path := filepath.Join(dir, checkpoint.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Payload offsets: the 8-byte NextVertex of v2 sat after the witness
	// pair; the v3 winnow frontier (an 8-byte length, here 0) after the
	// per-vertex arrays, which start behind the 72-byte header, the 17
	// counters and the 8-byte vertex count; v2 to v4 ended with the two
	// chain maps (an 8-byte length each, here 0).
	const magicLen, nextVertexAt = 8, 4 + 32 + 4*4
	n := g.NumVertices()
	frontierAt := 72 + 17*8 + 8 + 5*n
	payload := binary.LittleEndian.AppendUint64(slices.Clone(data[magicLen:len(data)-4]), 0)
	payload = binary.LittleEndian.AppendUint64(payload, 0)
	v2 := binary.LittleEndian.AppendUint32(nil, 2)
	v2 = append(v2, payload[4:nextVertexAt]...)
	v2 = binary.LittleEndian.AppendUint64(v2, 0)
	v2 = append(v2, payload[nextVertexAt:]...)
	v3 := binary.LittleEndian.AppendUint32(nil, 3)
	v3 = append(v3, payload[4:frontierAt]...)
	v3 = binary.LittleEndian.AppendUint64(v3, 0)
	v3 = append(v3, payload[frontierAt:]...)
	v4 := binary.LittleEndian.AppendUint32(nil, 4)
	v4 = append(v4, payload[4:]...)

	for _, old := range []struct {
		version int
		payload []byte
	}{{2, v2}, {3, v3}, {4, v4}} {
		version := old.version
		file := append(slices.Clone(data[:magicLen]), old.payload...)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(old.payload))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		res := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{ResumeFrom: path}})
		if want := fmt.Sprintf("version %d", version); res.Resumed || !strings.Contains(res.ResumeError, want) {
			t.Fatalf("Resumed=%v ResumeError=%q, want a version-%d rejection", res.Resumed, res.ResumeError, version)
		}
		if res.Diameter != fresh.Diameter || res.Stats.EccBFS != fresh.Stats.EccBFS {
			t.Fatalf("v%d fallback solve: diameter %d with %d BFS, fresh %d with %d",
				version, res.Diameter, res.Stats.EccBFS, fresh.Diameter, fresh.Stats.EccBFS)
		}
	}
}

// TestResumedSolveCountsOnlyItsOwnWork: the process-wide work counters
// receive each solve's own work once; a resumed solve, whose Stats continue
// the snapshot's totals, must not count the interrupted run's work again.
func TestResumedSolveCountsOnlyItsOwnWork(t *testing.T) {
	g := gen.RoadNetwork(60, 60, 0.2, 3)
	dir := t.TempDir()
	before := cBFSTraversals.Value()
	first, _ := cancelInMainLoopEliminate(t, g, dir, 3)
	if got, want := cBFSTraversals.Value()-before, first.Stats.BFSTraversals(); got != want {
		t.Fatalf("interrupted solve counted %d traversals, its Stats say %d", got, want)
	}
	path := filepath.Join(dir, checkpoint.FileName)
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	before, improvements := cBFSTraversals.Value(), cBoundImprovements.Value()
	resumed := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{ResumeFrom: path}})
	if !resumed.Resumed {
		t.Fatalf("resume rejected: %q", resumed.ResumeError)
	}
	own := resumed.Stats.BFSTraversals() - snap.Counters.EccBFS - snap.Counters.WinnowCalls
	if got := cBFSTraversals.Value() - before; got != own || own <= 0 {
		t.Errorf("resumed solve counted %d traversals, want its own %d (Stats total %d)",
			got, own, resumed.Stats.BFSTraversals())
	}
	ownImp := resumed.Stats.BoundImprovements - snap.Counters.BoundImprovements
	if got := cBoundImprovements.Value() - improvements; got != ownImp {
		t.Errorf("resumed solve counted %d bound improvements, want its own %d", got, ownImp)
	}
}

func TestResumeFallsBackOnBadSnapshot(t *testing.T) {
	g := gen.Grid2D(30, 30)
	want := Diameter(g, Options{Workers: 1}).Diameter

	t.Run("missing", func(t *testing.T) {
		res := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{
			ResumeFrom: filepath.Join(t.TempDir(), "nope.ckpt"),
		}})
		if res.Resumed || res.ResumeError == "" {
			t.Fatalf("Resumed=%v ResumeError=%q", res.Resumed, res.ResumeError)
		}
		if res.Diameter != want {
			t.Fatalf("fallback diameter %d, want %d", res.Diameter, want)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), checkpoint.FileName)
		if err := os.WriteFile(path, []byte("FDIAMCK1 garbage that is not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		res := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{ResumeFrom: path}})
		if res.Resumed || res.ResumeError == "" {
			t.Fatalf("Resumed=%v ResumeError=%q", res.Resumed, res.ResumeError)
		}
		if res.Diameter != want {
			t.Fatalf("fallback diameter %d, want %d", res.Diameter, want)
		}
	})

	t.Run("wrong-graph", func(t *testing.T) {
		// Interrupt a solve of a DIFFERENT graph to get a genuine
		// snapshot, then try to resume this one from it.
		other := gen.RoadNetwork(120, 120, 0.2, 7)
		dir := t.TempDir()
		interruptMidMainLoop(t, other, dir)
		path := filepath.Join(dir, checkpoint.FileName)
		res := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{ResumeFrom: path}})
		if res.Resumed || res.ResumeError == "" {
			t.Fatalf("Resumed=%v ResumeError=%q", res.Resumed, res.ResumeError)
		}
		if res.Diameter != want {
			t.Fatalf("fallback diameter %d, want %d", res.Diameter, want)
		}
	})
}

func TestCheckpointCadenceAndCleanup(t *testing.T) {
	g := gen.Grid2D(40, 40)
	dir := t.TempDir()
	res := Diameter(g, Options{
		Workers:    1,
		Checkpoint: CheckpointOptions{Dir: dir, Interval: 1},
	})
	if res.Cancelled {
		t.Fatal("solve cancelled")
	}
	if res.Stats.Checkpoints == 0 {
		t.Fatal("Interval=1 solve wrote no checkpoints")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpoint.FileName)); !os.IsNotExist(err) {
		t.Fatalf("completed solve left its snapshot: %v", err)
	}
}

// TestCheckpointBarrierWritesInsideTraversal pins the BFS level barrier: a
// tiny time cadence with NO count cadence must still produce snapshots,
// which (on a high-diameter graph whose main-loop traversals have thousands
// of levels) can only come from the per-level barrier or vertex boundaries.
func TestCheckpointBarrierWritesInsideTraversal(t *testing.T) {
	// A cycle has no degree-1 chains, so the main loop keeps real work,
	// and each main-loop BFS has ~n/2 levels for the barrier to hit. Kept
	// deliberately small: Every=1ns makes every barrier check write (and
	// fsync) a snapshot, so the write count IS the workload.
	g := gen.Cycle(200)
	dir := t.TempDir()
	res := Diameter(g, Options{
		Workers:    1,
		Checkpoint: CheckpointOptions{Dir: dir, Every: time.Nanosecond},
	})
	if res.Cancelled {
		t.Fatal("solve cancelled")
	}
	if res.Diameter != 100 {
		t.Fatalf("cycle diameter %d, want 100", res.Diameter)
	}
	// With Every=1ns each barrier check fires; far more levels than
	// main-loop vertices exist, so barrier-origin writes dominate.
	if res.Stats.Checkpoints <= res.Stats.Computed {
		t.Fatalf("%d checkpoints for %d computed vertices — the level barrier never fired",
			res.Stats.Checkpoints, res.Stats.Computed)
	}
}

// TestResumeFromEveryPrefix replays a completed solve's snapshot stream:
// solving with Interval=1 while keeping a copy of every snapshot written,
// then resuming from each copy, must always reach the same diameter. This
// is the strongest determinism check — every reachable checkpoint state is
// a valid resume point.
func TestResumeFromEveryPrefix(t *testing.T) {
	g := gen.RoadNetwork(24, 24, 0.2, 7)
	want := Diameter(g, Options{Workers: 1})
	dir := t.TempDir()

	first := interruptMidMainLoop(t, g, dir)
	_ = first
	path := filepath.Join(dir, checkpoint.FileName)
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Skipf("no snapshot survived interruption: %v", err)
	}

	// Resume, interrupt again, resume again — chained restarts must stay
	// exact. Bound the chain to avoid pathological timing loops.
	for hop := 0; hop < 3; hop++ {
		res := Diameter(g, Options{Workers: 1, Checkpoint: CheckpointOptions{
			Dir: dir, Interval: 1, ResumeFrom: path,
		}})
		if !res.Resumed {
			t.Fatalf("hop %d: resume rejected: %q", hop, res.ResumeError)
		}
		if res.Diameter != want.Diameter {
			t.Fatalf("hop %d: diameter %d, want %d", hop, res.Diameter, want.Diameter)
		}
		// Re-write the snapshot for the next hop (the completed solve
		// removed it); hop from the same state each time.
		if err := checkpoint.Write(path, snap); err != nil {
			t.Fatal(err)
		}
	}
}
