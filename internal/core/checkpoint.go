package core

import (
	"os"
	"path/filepath"
	"time"

	"fdiam/internal/checkpoint"
	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// ckptState is the solver's checkpointing bookkeeping. Snapshots are taken
// only where the solver state is self-consistent AND resuming is sound:
// main-loop vertex boundaries, BFS level boundaries inside main-loop
// eccentricity traversals, and the main loop's cancellation exits. Winnow,
// Chain Processing and the 2-sweep never snapshot — a mid-chains snapshot
// could capture a chain anchor removed by its own hub ball before
// reactivate() restores it, and resuming such a state silently skips that
// anchor's eccentricity (a wrong exact diameter, the one failure mode this
// subsystem must never have).
type ckptState struct {
	path     string        // snapshot file; "" = writes disabled
	interval int           // write every N main-loop BFS calls; 0 = off
	every    time.Duration // write when this much time passed; 0 = off
	last     time.Time     // time of the last write attempt
	calls    int           // main-loop commits since the last write
	armed    bool          // inside a main-loop eccentricity traversal
	hash     [32]byte      // cached GraphHash (O(n+m) to compute)
	hashOK   bool
}

// initCheckpoint arms checkpoint writes when Options.Checkpoint.Dir is set.
// A directory that cannot be created disables writes rather than failing
// the solve — checkpointing is best-effort by contract, the computation is
// not.
func (s *solver) initCheckpoint() {
	co := s.opt.Checkpoint
	if co.Dir == "" {
		return
	}
	if err := os.MkdirAll(co.Dir, 0o755); err != nil {
		return
	}
	s.ck.path = filepath.Join(co.Dir, checkpoint.FileName)
	s.ck.interval = co.Interval
	s.ck.every = co.Every
	if s.ck.interval <= 0 && s.ck.every <= 0 {
		s.ck.every = 10 * time.Second
	}
	s.ck.last = time.Now()
	s.e.SetBarrier(s.ckptBarrier)
}

// graphHash returns the (cached) content hash binding snapshots to s.g.
func (s *solver) graphHash() [32]byte {
	if !s.ck.hashOK {
		s.ck.hash = checkpoint.GraphHash(s.g)
		s.ck.hashOK = true
	}
	return s.ck.hash
}

// tryResume restores the snapshot named by Options.Checkpoint.ResumeFrom.
// Any failure — missing file, corruption, graph mismatch — degrades to a
// fresh solve with the reason kept for Result.ResumeError; a resumed run is
// indistinguishable from one that computed the state in-process (the
// checked build re-verifies every invariant on the restored state).
func (s *solver) tryResume() bool {
	path := s.opt.Checkpoint.ResumeFrom
	if path == "" {
		return false
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		s.resumeErr = err.Error()
		return false
	}
	if err := snap.Validate(s.g); err != nil {
		checkpoint.MarkRestoreFailed()
		s.resumeErr = err.Error()
		return false
	}

	s.restoreVertexState(snap.Ecc, snap.Stage, snap.Bound)
	s.start = graph.Vertex(snap.Start)
	s.witnessA = graph.Vertex(snap.WitnessA)
	s.witnessB = graph.Vertex(snap.WitnessB)
	s.winnowDepth = snap.WinnowDepth
	// Resume honors the snapshot's anytime tolerance: a caller that did
	// not choose an ε of its own (Options.Epsilon == 0) adopts the one the
	// interrupted run was using; an explicit positive ε overrides it, and
	// a negative ε forces an exact resume.
	if s.opt.Epsilon == 0 && snap.Epsilon > 0 {
		s.epsilon = snap.Epsilon
	}
	// Reopen the corridor at the recorded proven upper bound (run() still
	// applies the trivial n−1 cap; capUB keeps whichever is tighter), so
	// an adopted ε that was already satisfied stops again immediately.
	if snap.UbCap >= 0 {
		s.capUB(snap.UbCap)
	}
	s.statsFromCounters(&snap.Counters)
	s.base = snap.Counters
	s.infinite = snap.Infinite
	s.ck.hash, s.ck.hashOK = snap.GraphHash, true
	s.resumed = true
	checkpoint.MarkRestored()
	if checkedBuild {
		s.checkStateConsistency("resume")
	}
	if tr := s.opt.Trace; tr != nil {
		tr.Instant("checkpoint", "resume",
			obs.I("active", s.activeRemaining()), obs.I("bound", int64(snap.Bound)))
	}
	return true
}

// buildSnapshot captures the current solver state. Every vertex the main
// loop has passed is removed or computed, so the Active set is exactly the
// work left; the vertex (or batch) in flight, if any, is still Active and
// is redone on resume.
func (s *solver) buildSnapshot() *checkpoint.Snapshot {
	snap := &checkpoint.Snapshot{
		GraphHash:   s.graphHash(),
		Bound:       s.bound,
		Start:       uint32(s.start),
		WitnessA:    uint32(s.witnessA),
		WitnessB:    uint32(s.witnessB),
		Infinite:    s.infinite,
		Ecc:         append([]int32(nil), s.ecc...),
		Stage:       make([]uint8, len(s.stage)),
		WinnowDepth: s.winnowDepth,
		UbCap:       s.ubCap,
	}
	// Record the effective anytime tolerance (never the negative
	// force-exact sentinel) so a ctx-less resume keeps honoring it.
	if s.epsilon > 0 {
		snap.Epsilon = s.epsilon
	}
	for i, st := range s.stage {
		snap.Stage[i] = uint8(st)
	}
	snap.Counters = s.countersFromStats()
	return snap
}

// writeCheckpoint publishes a snapshot of the current state. A failed
// write (disk trouble, a failed rename) never fails the solve; the
// checkpoint package's metrics record it and the previous snapshot stays
// in place.
func (s *solver) writeCheckpoint() {
	if s.ck.path == "" {
		return
	}
	if err := checkpoint.Write(s.ck.path, s.buildSnapshot()); err == nil {
		s.stats.Checkpoints++
		if tr := s.opt.Trace; tr != nil {
			tr.Instant("checkpoint", "write", obs.I("active", s.activeRemaining()))
		}
	}
	s.ck.calls = 0
	s.ck.last = time.Now()
}

// ckptAfterVertex runs at each main-loop vertex boundary: all of the last
// vertex's work (its BFS plus any winnow/eliminate extension) is reflected
// in the state, so a snapshot here loses nothing on resume.
func (s *solver) ckptAfterVertex() {
	if s.ck.path == "" {
		return
	}
	if (s.ck.interval > 0 && s.ck.calls >= s.ck.interval) ||
		(s.ck.every > 0 && time.Since(s.ck.last) >= s.ck.every) {
		s.writeCheckpoint()
	}
}

// ckptBarrier is the BFS engine's per-level callback: inside a main-loop
// eccentricity traversal (and only there — s.ck.armed gates winnow, chain
// and eliminate traversals out) the solver state is consistent between
// levels, with the in-flight vertex redone on resume. This is what bounds
// a crash's lost work during one enormous traversal.
func (s *solver) ckptBarrier() {
	if !s.ck.armed || s.ck.every <= 0 || time.Since(s.ck.last) < s.ck.every {
		return
	}
	s.writeCheckpoint()
}

// clearCheckpoint removes the snapshot after a completed (not cancelled)
// solve: the file's purpose — resuming an interrupted run — is spent, and
// leaving it would make a later run of the same directory resume into a
// finished state.
func (s *solver) clearCheckpoint() {
	if s.ck.path == "" {
		return
	}
	_ = os.Remove(s.ck.path)
	// A kill mid-Save leaves a torn temp file beside the snapshot; sweep
	// any such leftovers so completed runs retire the directory cleanly.
	if stale, err := filepath.Glob(s.ck.path + ".tmp*"); err == nil {
		for _, f := range stale {
			_ = os.Remove(f)
		}
	}
}

// countersFromStats snapshots the monotone Stats accumulation, folding in
// the engine's live direction-switch count and the wall clock so a resumed
// run's totals continue instead of restarting.
func (s *solver) countersFromStats() checkpoint.Counters {
	st := &s.stats
	return checkpoint.Counters{
		EccBFS:            st.EccBFS,
		WinnowCalls:       st.WinnowCalls,
		EliminateCalls:    st.EliminateCalls,
		EliminateVisited:  st.EliminateVisited,
		BoundImprovements: st.BoundImprovements,
		DirSwitches:       s.base.DirSwitches + s.e.DirectionSwitches(),
		RemovedWinnow:     st.RemovedWinnow,
		RemovedEliminate:  st.RemovedEliminate,
		RemovedChain:      st.RemovedChain,
		RemovedDegree0:    st.RemovedDegree0,
		Computed:          st.Computed,
		TimeInit:          st.TimeInit,
		TimeEcc:           st.TimeEcc,
		TimeWinnow:        st.TimeWinnow,
		TimeChain:         st.TimeChain,
		TimeEliminate:     st.TimeEliminate,
		TimeTotal:         s.base.TimeTotal + time.Since(s.t0),
	}
}

// statsFromCounters installs a restored snapshot's accumulation into Stats
// (Vertices stays as computed for this run; TimeTotal/DirSwitches are
// finalized in finish from the restored bases).
func (s *solver) statsFromCounters(c *checkpoint.Counters) {
	st := &s.stats
	st.EccBFS = c.EccBFS
	st.WinnowCalls = c.WinnowCalls
	st.EliminateCalls = c.EliminateCalls
	st.EliminateVisited = c.EliminateVisited
	st.BoundImprovements = c.BoundImprovements
	st.RemovedWinnow = c.RemovedWinnow
	st.RemovedEliminate = c.RemovedEliminate
	st.RemovedChain = c.RemovedChain
	st.RemovedDegree0 = c.RemovedDegree0
	st.Computed = c.Computed
	st.TimeInit = c.TimeInit
	st.TimeEcc = c.TimeEcc
	st.TimeWinnow = c.TimeWinnow
	st.TimeChain = c.TimeChain
	st.TimeEliminate = c.TimeEliminate
}
