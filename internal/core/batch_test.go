package core

// MS-BFS batching tests: the batched main loop must be observationally
// identical to the unbatched one — same diameter, same bound trajectory,
// same removal attribution, same counter values for everything except the
// MSBFS_* accounting — across the generator catalog and the option matrix,
// and it must honor the cancellation and checkpoint/resume contracts of
// PR 4/5. Under `-tags fdiam.checked` the sweep additionally cross-checks
// every batch eccentricity against independent BFS (the graphs below the
// checkedDiffMaxN cap).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fdiam/internal/bfs"
	"fdiam/internal/checkpoint"
	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func batchCatalog() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// Small entries stay under the checked differential cap so the
		// fdiam.checked run of this sweep audits batch eccentricities
		// against independent BFS.
		"path-small": gen.Path(600),
		"grid-small": gen.Grid2D(20, 20),
		"rmat-small": gen.RMAT(9, 8, gen.DefaultRMAT, 21),
		"cycle":      gen.Cycle(1100),
		"star":       gen.Star(1500),
		"lollipop":   gen.Lollipop(50, 300),
		"grid":       gen.Grid2D(35, 35),
		"trigrid":    gen.TriangularGrid(28, 28),
		"road":       gen.RoadNetwork(30, 30, 0.1, 4),
		"geometric":  gen.RandomGeometric(1000, gen.RadiusForDegree(1000, 6), 5),
		"rmat":       gen.RMAT(10, 12, gen.DefaultRMAT, 6),
		"ba":         gen.BarabasiAlbert(1200, 4, 8),
		"whiskers":   gen.CoreWhiskers(1200, 6, 0.3, 5, 10),
		"smallworld": gen.WattsStrogatz(1200, 6, 0.1, 11),
		"pendants":   gen.WithPendants(gen.RMAT(9, 8, gen.DefaultRMAT, 13), 200, 14),
		"chains":     gen.WithChains(gen.Kronecker(9, 8, 15), 25, 20, 16),
		"tree":       gen.RandomTree(1400, 17),
		"disjoint":   gen.Disjoint(gen.Grid2D(20, 20), gen.RMAT(8, 8, gen.DefaultRMAT, 18)),
	}
}

// assertBatchEquivalent fails unless res agrees with ref on the result and
// on every Stats counter the batching equivalence argument covers.
// DirSwitches, witnesses, timings and the MSBFS_* group are exempt: fewer
// single-source traversals legitimately change switch counts, and a batch
// may pick a different (but still valid) witness of the same distance.
func assertBatchEquivalent(t *testing.T, label string, ref, res Result) {
	t.Helper()
	if res.Diameter != ref.Diameter || res.Infinite != ref.Infinite {
		t.Errorf("%s: (diam=%d, inf=%v), want (%d, %v)",
			label, res.Diameter, res.Infinite, ref.Diameter, ref.Infinite)
	}
	if res.Cancelled || res.TimedOut {
		t.Errorf("%s: unexpected cancellation", label)
	}
	a, b := ref.Stats, res.Stats
	for _, c := range []struct {
		name       string
		want, have int64
	}{
		{"ecc_bfs", a.EccBFS, b.EccBFS},
		{"winnow_calls", a.WinnowCalls, b.WinnowCalls},
		{"eliminate_calls", a.EliminateCalls, b.EliminateCalls},
		{"eliminate_visited", a.EliminateVisited, b.EliminateVisited},
		{"bound_improvements", a.BoundImprovements, b.BoundImprovements},
		{"removed_winnow", a.RemovedWinnow, b.RemovedWinnow},
		{"removed_eliminate", a.RemovedEliminate, b.RemovedEliminate},
		{"removed_chain", a.RemovedChain, b.RemovedChain},
		{"removed_degree0", a.RemovedDegree0, b.RemovedDegree0},
		{"computed", a.Computed, b.Computed},
	} {
		if c.have != c.want {
			t.Errorf("%s: stats.%s = %d, want %d", label, c.name, c.have, c.want)
		}
	}
}

// assertWitnessRealizes verifies the batched run's witness pair is a valid
// one: d(WitnessA, WitnessB) must equal the reported diameter. Batched runs
// may pick different witnesses than unbatched ones, but never invalid ones.
func assertWitnessRealizes(t *testing.T, label string, g *graph.Graph, res Result) {
	t.Helper()
	if res.WitnessA == graph.NoVertex {
		return // edgeless graphs carry no witness pair
	}
	e := bfs.New(g, 1)
	dist := make([]int32, g.NumVertices())
	e.Distances(res.WitnessA, dist)
	if dist[res.WitnessB] != res.Diameter {
		t.Errorf("%s: d(witnessA=%d, witnessB=%d) = %d, want diameter %d",
			label, res.WitnessA, res.WitnessB, dist[res.WitnessB], res.Diameter)
	}
}

// TestBatchEquivalenceSweep is the acceptance sweep of ISSUE 6: across the
// catalog, forced batching (serial and parallel) must reproduce the
// never-batched run's result and Stats exactly, and the default cost model
// must never change the answer.
func TestBatchEquivalenceSweep(t *testing.T) {
	for name, g := range batchCatalog() {
		t.Run(name, func(t *testing.T) {
			var ref1 Result
			for _, w := range []int{1, 4} {
				ref := Diameter(g, Options{Workers: w, batch: batchNever})
				if w == 1 {
					ref1 = ref
				}
				if ref.Stats.MSBFSBatches != 0 || ref.Stats.MSBFSSources != 0 {
					t.Fatalf("workers=%d: disabled batching still ran %d batches",
						w, ref.Stats.MSBFSBatches)
				}
				label := fmt.Sprintf("workers=%d", w)
				res := Diameter(g, Options{Workers: w, batch: batchAlways})
				assertBatchEquivalent(t, label, ref, res)
				assertWitnessRealizes(t, label, g, res)
			}
			// The default options go through the cost model: whether or
			// not it decides to batch, the answer must not move.
			def := Diameter(g, Options{Workers: 4})
			if def.Diameter != ref1.Diameter || def.Infinite != ref1.Infinite {
				t.Errorf("cost-model run: (diam=%d, inf=%v), want (%d, %v)",
					def.Diameter, def.Infinite, ref1.Diameter, ref1.Infinite)
			}
		})
	}
}

// TestBatchAccounting pins the MSBFS_* counter algebra of a forced batched
// run: every main-loop evaluation goes through a batch, so the committed
// sources are exactly the main-loop BFS count (EccBFS minus the three
// traversals before the main loop: u, w and the centre m, which this road
// stand-in's off-centre u calls for) and every batch source is either
// committed or discarded.
func TestBatchAccounting(t *testing.T) {
	g := gen.RoadNetwork(40, 40, 0.2, 3)
	res := Diameter(g, Options{Workers: 1, batch: batchAlways})
	if res.Cancelled {
		t.Fatal("solve cancelled")
	}
	if res.Stats.MSBFSBatches == 0 {
		t.Fatal("forced batching ran no batches")
	}
	committed := res.Stats.EccBFS - 3 // the 2-sweep and the centre run unbatched
	if res.Stats.MSBFSSources != committed+res.Stats.MSBFSDiscarded {
		t.Fatalf("sources %d != committed %d + discarded %d",
			res.Stats.MSBFSSources, committed, res.Stats.MSBFSDiscarded)
	}
	if res.Stats.MSBFSSources < res.Stats.MSBFSBatches {
		t.Fatalf("%d batches but only %d sources", res.Stats.MSBFSBatches, res.Stats.MSBFSSources)
	}
}

// TestBatchCostModelGates unit-tests batchEligible's decision table against
// synthetic solver state.
func TestBatchCostModelGates(t *testing.T) {
	eligible := func(mode batchMode, active int64, ewma float64, bound int32) bool {
		s := &solver{opt: Options{batch: mode}}
		s.stats.Vertices = 100000
		s.stats.Computed = 100000 - active
		s.pruneEWMA = ewma
		s.bound = bound
		return s.batchEligible()
	}
	cases := []struct {
		name   string
		mode   batchMode
		active int64
		ewma   float64
		bound  int32
		want   bool
	}{
		{"never-ignores-model", batchNever, 5000, 2, 20, false},
		{"always-ignores-model", batchAlways, 1, -1, 500, true},
		{"all-gates-open", batchAuto, 5000, 2, 20, true},
		{"too-few-active", batchAuto, batchMinActive - 1, 2, 20, false},
		{"no-prune-data-yet", batchAuto, 5000, -1, 20, false},
		{"pruning-too-hot", batchAuto, 5000, batchMaxPrune + 1, 20, false},
		{"bound-too-high", batchAuto, 5000, 2, batchMaxBound + 1, false},
		{"bound-at-cap", batchAuto, 5000, 2, batchMaxBound, true},
	}
	for _, c := range cases {
		if got := eligible(c.mode, c.active, c.ewma, c.bound); got != c.want {
			t.Errorf("%s: batchEligible = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBatchAutoModelFiresWhereItPays pins the default cost model on the
// two shapes it separates: a low-diameter core-whiskers graph (the
// solve-lowdiam family, where batching roughly triples throughput and
// speeds this graph's solve up 6–9×) batches at Workers=1, and a grid
// (hundreds of thin levels) never does. Every
// other batch test forces batchAlways or batchNever.
func TestBatchAutoModelFiresWhereItPays(t *testing.T) {
	social := Diameter(gen.CoreWhiskers(187500, 10, 0.10, 7, 1), Options{Workers: 1})
	if social.Stats.MSBFSBatches == 0 || social.Stats.MSBFSSources == 0 {
		t.Errorf("core-whiskers: auto model ran %d batches (%d sources), want > 0",
			social.Stats.MSBFSBatches, social.Stats.MSBFSSources)
	}
	t.Logf("core-whiskers: %d batches, %d sources", social.Stats.MSBFSBatches, social.Stats.MSBFSSources)
	grid := Diameter(gen.Grid2D(120, 120), Options{Workers: 1})
	if grid.Stats.MSBFSBatches != 0 {
		t.Errorf("grid: auto model ran %d batches, want 0", grid.Stats.MSBFSBatches)
	}
}

// interruptBatchedMidMainLoop is interruptMidMainLoop for a forced-batching
// solve: on a graph whose main loop is dominated by MS-BFS batches, a
// cancel landing in the main loop lands mid-batch with high probability,
// exercising the abort path of runBatch.
func interruptBatchedMidMainLoop(t *testing.T, g *graph.Graph, dir string) Result {
	t.Helper()
	path := filepath.Join(dir, checkpoint.FileName)
	delay := 2 * time.Millisecond
	for attempt := 0; attempt < 12; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan Result, 1)
		go func() {
			done <- DiameterCtx(ctx, g, Options{
				Workers:    1,
				batch:      batchAlways,
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
			delay *= 2
			continue
		}
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

// TestBatchCancellationMidBatch: a cancelled batched solve must report a
// sound lower bound, leave a valid snapshot behind, and resume — batched or
// unbatched — to the exact diameter.
func TestBatchCancellationMidBatch(t *testing.T) {
	g := gen.RoadNetwork(120, 120, 0.2, 7)
	fresh := Diameter(g, Options{Workers: 1, batch: batchNever})

	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.FileName)
	first := interruptBatchedMidMainLoop(t, g, dir)
	if first.Diameter > fresh.Diameter {
		t.Fatalf("cancelled run's bound %d exceeds true diameter %d", first.Diameter, fresh.Diameter)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatalf("reading interruption snapshot: %v", err)
	}
	if err := snap.Validate(g); err != nil {
		t.Fatalf("interruption snapshot invalid: %v", err)
	}

	// Resume once batched and once unbatched: the snapshot format carries
	// no batching state, so either mode must complete it exactly.
	for _, mode := range []struct {
		name  string
		batch batchMode
	}{
		{"resume-batched", batchAlways},
		{"resume-unbatched", batchNever},
	} {
		t.Run(mode.name, func(t *testing.T) {
			res := Diameter(g, Options{
				Workers:    1,
				batch:      mode.batch,
				Checkpoint: CheckpointOptions{ResumeFrom: path},
			})
			if !res.Resumed {
				t.Fatalf("resume rejected: %q", res.ResumeError)
			}
			if res.Diameter != fresh.Diameter || res.Infinite != fresh.Infinite {
				t.Fatalf("resumed (diam=%d, inf=%v), want (%d, %v)",
					res.Diameter, res.Infinite, fresh.Diameter, fresh.Infinite)
			}
			if res.Stats.Computed != fresh.Stats.Computed {
				t.Fatalf("resumed computed %d vertices, fresh %d",
					res.Stats.Computed, fresh.Stats.Computed)
			}
		})
	}
}

// TestBatchResumeFromUnbatchedSnapshot is the reverse crossing: interrupt a
// legacy (unbatched) solve and finish it with batching forced on.
func TestBatchResumeFromUnbatchedSnapshot(t *testing.T) {
	g := gen.RoadNetwork(120, 120, 0.2, 7)
	fresh := Diameter(g, Options{Workers: 1, batch: batchNever})

	dir := t.TempDir()
	interruptMidMainLoop(t, g, dir)
	path := filepath.Join(dir, checkpoint.FileName)
	res := Diameter(g, Options{
		Workers:    1,
		batch:      batchAlways,
		Checkpoint: CheckpointOptions{Dir: dir, Interval: 1, ResumeFrom: path},
	})
	if !res.Resumed {
		t.Fatalf("resume rejected: %q", res.ResumeError)
	}
	if res.Diameter != fresh.Diameter {
		t.Fatalf("resumed diameter %d, want %d", res.Diameter, fresh.Diameter)
	}
	// A completed resume retires the snapshot.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot still present after completed resume: %v", err)
	}
}

// TestBatchTimeoutLowerBound: a timed-out batched run reports TimedOut with
// a lower bound that never exceeds the true diameter (the abort path of
// runBatch harvests per-source truncated level counts).
func TestBatchTimeoutLowerBound(t *testing.T) {
	g := gen.Grid2D(150, 150)
	want := int32(150 + 150 - 2)
	for _, timeout := range []time.Duration{time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		res := Diameter(g, Options{
			Workers: 1,
			batch:   batchAlways,
			Timeout: timeout,
		})
		if res.Cancelled {
			if !res.TimedOut {
				t.Fatalf("timeout %v: cancelled without TimedOut", timeout)
			}
			if res.Diameter > want {
				t.Fatalf("timeout %v: lower bound %d exceeds diameter %d", timeout, res.Diameter, want)
			}
			return // exercised the abort path at least once
		}
		if res.Diameter != want {
			t.Fatalf("timeout %v: completed with diameter %d, want %d", timeout, res.Diameter, want)
		}
	}
	t.Skip("machine too fast to time out even at 1µs")
}
