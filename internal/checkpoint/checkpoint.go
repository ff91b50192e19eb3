// Package checkpoint persists F-Diam solver state across process deaths.
//
// A Snapshot is everything the solver needs to resume a solve at a
// main-loop boundary: the current bound and witness pair, the per-vertex
// state and stage arrays, the winnow radius, and the Stats counters — the
// monotone accumulation state whose loss makes an hours-long solve start
// over. Snapshots are serialized in a
// versioned little-endian binary format guarded by a CRC-32 of the whole
// payload and bound to their input by a SHA-256 of the graph's CSR arrays;
// Write is atomic (temp file + rename into place), so a crash mid-write
// leaves the previous snapshot intact.
// DESIGN.md §10 documents the format and the resume invariants.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"fdiam/internal/graph"
	"fdiam/internal/obs"
)

// magic identifies the fdiam checkpoint container; the trailing digit is
// the container revision (bump only if the envelope itself — magic, CRC
// placement — changes; payload evolution uses version below).
const magic = "FDIAMCK1"

// version is the payload schema version. Readers reject snapshots from a
// different version outright: resuming is an exactness-critical operation
// and cross-version field guessing is how silent wrong diameters happen.
// v2 added the Epsilon and UbCap fields (the anytime corridor recorded so
// resume honors the tolerance and reopens at the proven upper bound); v3
// dropped NextVertex, because the main loop resumes from the restored
// Active set rather than a vertex index; v4 dropped WinnowFrontier,
// because Winnow extends its ball from the start's distances, which resume
// recomputes; v5 dropped the chain-hub maps, because Chain Processing runs
// only before the main loop, where no snapshot is ever taken.
const version = 5

// FileName is the canonical snapshot name inside a checkpoint directory.
// One solve owns one directory; Write replaces the file atomically, so the
// directory always holds at most one complete snapshot plus (transiently)
// one temp file.
const FileName = "state.ckpt"

// Package metrics, exposed on the default registry next to the solver and
// fdiamd instruments.
var (
	mWrites        = obs.Default().Counter("fdiam_checkpoint_writes_total", "checkpoint snapshots written")
	mWriteErrors   = obs.Default().Counter("fdiam_checkpoint_write_errors_total", "checkpoint writes that failed (create, write, sync or rename)")
	mWriteBytes    = obs.Default().Counter("fdiam_checkpoint_written_bytes_total", "bytes of checkpoint snapshots written")
	mRestores      = obs.Default().Counter("fdiam_checkpoint_restores_total", "snapshots successfully read and validated for resume")
	mRestoreErrors = obs.Default().Counter("fdiam_checkpoint_restore_errors_total", "snapshot reads rejected (missing, corrupt, or graph mismatch)")
	mWriteSeconds  = obs.Default().Histogram("fdiam_checkpoint_write_seconds",
		"wall time per successful checkpoint write (encode through fsync and rename)", obs.HistogramOpts{})
)

// ErrCorrupt wraps every integrity failure (bad magic, version, CRC,
// truncation, structural inconsistency); callers that auto-resume match it
// to fall back to a fresh solve instead of failing the request.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrGraphMismatch reports a structurally valid snapshot taken from a
// different graph than the one being solved.
var ErrGraphMismatch = errors.New("checkpoint: snapshot belongs to a different graph")

// Counters mirrors the monotone core.Stats accumulation a resumed run must
// continue from (durations as accumulated wall-clock). It is a separate
// struct, not core.Stats, because core imports this package.
type Counters struct {
	EccBFS            int64
	WinnowCalls       int64
	EliminateCalls    int64
	EliminateVisited  int64
	BoundImprovements int64
	DirSwitches       int64

	RemovedWinnow    int64
	RemovedEliminate int64
	RemovedChain     int64
	RemovedDegree0   int64
	Computed         int64

	TimeInit      time.Duration
	TimeEcc       time.Duration
	TimeWinnow    time.Duration
	TimeChain     time.Duration
	TimeEliminate time.Duration
	TimeTotal     time.Duration
}

// Snapshot is one recoverable solver state, captured at a point where the
// per-vertex arrays, the counters and the bound are mutually consistent
// (the solver only snapshots at BFS call/level boundaries, where that
// holds — see internal/core).
type Snapshot struct {
	// GraphHash binds the snapshot to its input: SHA-256 over the CSR
	// arrays (see GraphHash). Validate refuses to restore onto any other
	// graph.
	GraphHash [32]byte

	// Bound is the diameter lower bound established so far; WitnessA/B
	// realize it. Start is the winnow center: the 2-sweep start vertex, or
	// the sweep midpoint when the solver's centre step moved Winnow there.
	Bound              int32
	Start              uint32
	WitnessA, WitnessB uint32

	// Infinite records the connectivity verdict of the completed 2-sweep.
	Infinite bool

	// Epsilon is the anytime tolerance the interrupted run was using
	// (0 = exact). A resume with no explicit ε of its own adopts it, so a
	// refinement chain keeps the tolerance the original caller asked for.
	Epsilon int32

	// UbCap is the best proven diameter upper bound at snapshot time
	// (-1 = none yet). Restoring it lets a resumed anytime run reopen at
	// the corridor it stopped in instead of the trivial n−1 cap.
	UbCap int32

	// Ecc and Stage are the per-vertex solver state (core's encoding:
	// MaxInt32 = active, -1 = winnowed, other = recorded bound or exact
	// eccentricity; Stage attributes each removal). The Active vertices
	// are exactly the main loop's remaining work: every vertex the loop
	// has passed is removed or computed, and the one in flight when the
	// snapshot was taken stays Active, so it is redone on resume — the
	// "at most one checkpoint interval of redone work" bound.
	Ecc   []int32
	Stage []uint8

	// WinnowDepth is the radius of the winnow ball around Start (−1 when
	// Winnow never ran), so a resumed run only re-winnows once the bound
	// grows past it.
	WinnowDepth int32

	Counters Counters
}

// GraphHash computes the snapshot's graph binding: SHA-256 over a domain
// tag, the vertex/arc counts, and the raw CSR arrays. Identical graph
// content always hashes identically regardless of how it was loaded.
func GraphHash(g *graph.Graph) [32]byte {
	h := sha256.New()
	var hdr [24]byte
	copy(hdr[:8], "FDIAMGH1")
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumArcs()))
	_, _ = h.Write(hdr[:]) // hash.Hash.Write never errors
	// Chunked conversion keeps the hash pass allocation-bounded on
	// multi-gigabyte CSR arrays.
	var buf [1 << 16]byte
	fill := 0
	flush := func() {
		_, _ = h.Write(buf[:fill]) // hash.Hash.Write never errors
		fill = 0
	}
	for _, o := range g.Offsets() {
		if fill+8 > len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint64(buf[fill:], uint64(o))
		fill += 8
	}
	for _, t := range g.Targets() {
		if fill+4 > len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint32(buf[fill:], t)
		fill += 4
	}
	flush()
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// encode serializes the payload (everything the CRC covers).
func (s *Snapshot) encode() []byte {
	n := len(s.Ecc)
	size := 4 + 32 + 4 + 4 + 4 + 4 + 4 + 4 + 4 + 4 + 17*8 + 8 + 5*n
	buf := bytes.NewBuffer(make([]byte, 0, size))
	le := binary.LittleEndian

	var w [8]byte
	u32 := func(v uint32) { le.PutUint32(w[:4], v); buf.Write(w[:4]) }
	i32 := func(v int32) { u32(uint32(v)) }
	u64 := func(v uint64) { le.PutUint64(w[:], v); buf.Write(w[:]) }
	i64 := func(v int64) { u64(uint64(v)) }

	u32(version)
	buf.Write(s.GraphHash[:])
	i32(s.Bound)
	u32(s.Start)
	u32(s.WitnessA)
	u32(s.WitnessB)
	var flags uint32
	if s.Infinite {
		flags |= 1
	}
	u32(flags)
	i32(s.WinnowDepth)
	i32(s.Epsilon)
	i32(s.UbCap)

	c := &s.Counters
	for _, v := range []int64{
		c.EccBFS, c.WinnowCalls, c.EliminateCalls, c.EliminateVisited,
		c.BoundImprovements, c.DirSwitches,
		c.RemovedWinnow, c.RemovedEliminate, c.RemovedChain, c.RemovedDegree0, c.Computed,
		int64(c.TimeInit), int64(c.TimeEcc), int64(c.TimeWinnow),
		int64(c.TimeChain), int64(c.TimeEliminate), int64(c.TimeTotal),
	} {
		i64(v)
	}

	u64(uint64(n))
	for _, e := range s.Ecc {
		i32(e)
	}
	buf.Write(s.Stage)

	return buf.Bytes()
}

// decoder is a bounds-checked little-endian payload reader: every read
// failure becomes ErrCorrupt instead of a panic, because snapshot bytes are
// untrusted input (a torn write, a bad disk, a hostile file).
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("%w: truncated payload at offset %d (+%d of %d)", ErrCorrupt, d.off, n, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}
func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
func (d *decoder) i64() int64 { return int64(d.u64()) }

// length reads a collection length and sanity-bounds it against the bytes
// actually remaining (elemSize ≥ 1), so a corrupt length cannot trigger a
// huge allocation before the truncation is noticed.
func (d *decoder) length(elemSize int) int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)-d.off)/uint64(elemSize) {
		d.err = fmt.Errorf("%w: declared length %d exceeds remaining payload", ErrCorrupt, n)
		return 0
	}
	return int(n)
}

// decode parses a payload produced by encode.
func decode(payload []byte) (*Snapshot, error) {
	d := &decoder{b: payload}
	if v := d.u32(); d.err == nil && v != version {
		return nil, fmt.Errorf("%w: payload version %d, want %d", ErrCorrupt, v, version)
	}
	s := &Snapshot{}
	copy(s.GraphHash[:], d.take(32))
	s.Bound = d.i32()
	s.Start = d.u32()
	s.WitnessA = d.u32()
	s.WitnessB = d.u32()
	flags := d.u32()
	s.Infinite = flags&1 != 0
	s.WinnowDepth = d.i32()
	s.Epsilon = d.i32()
	s.UbCap = d.i32()

	c := &s.Counters
	for _, p := range []*int64{
		&c.EccBFS, &c.WinnowCalls, &c.EliminateCalls, &c.EliminateVisited,
		&c.BoundImprovements, &c.DirSwitches,
		&c.RemovedWinnow, &c.RemovedEliminate, &c.RemovedChain, &c.RemovedDegree0, &c.Computed,
		(*int64)(&c.TimeInit), (*int64)(&c.TimeEcc), (*int64)(&c.TimeWinnow),
		(*int64)(&c.TimeChain), (*int64)(&c.TimeEliminate), (*int64)(&c.TimeTotal),
	} {
		*p = d.i64()
	}

	n := d.length(5) // each vertex costs ≥ 5 bytes (ecc + stage)
	if d.err == nil {
		s.Ecc = make([]int32, n)
		for i := range s.Ecc {
			s.Ecc[i] = d.i32()
		}
		s.Stage = append([]uint8(nil), d.take(n)...)
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(payload)-d.off)
	}
	return s, nil
}

// Write atomically publishes the snapshot at path: the payload (with magic
// prefix and CRC-32 suffix) is written to a temp file in the same
// directory, synced, and renamed over path. A failure at any step removes
// the temp file and leaves any previous snapshot at path untouched; a crash
// that leaves a temp file behind is harmless, since readers only ever open
// path.
func Write(path string, s *Snapshot) (err error) {
	writeStart := mWriteSeconds.StartTimer()
	defer func() {
		if err != nil {
			mWriteErrors.Inc()
		}
	}()
	payload := s.encode()
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, FileName+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpName)
		}
	}()

	if _, err = tmp.Write([]byte(magic)); err == nil {
		if _, err = tmp.Write(payload); err == nil {
			_, err = tmp.Write(crc[:])
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	mWrites.Inc()
	mWriteBytes.Add(int64(len(magic) + len(payload) + 4))
	mWriteSeconds.ObserveSince(writeStart)
	return nil
}

// Read loads and integrity-checks the snapshot at path. It does NOT bind
// the snapshot to a graph — callers must Validate against the graph they
// intend to resume on before restoring any state.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		mRestoreErrors.Inc()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := parse(data)
	if err != nil {
		mRestoreErrors.Inc()
		return nil, err
	}
	return s, nil
}

// parse validates the container envelope (magic, CRC) and decodes the
// payload.
func parse(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the envelope", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	payload := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (payload %08x, recorded %08x)", ErrCorrupt, got, want)
	}
	return decode(payload)
}

// Validate checks that the snapshot belongs to g and is internally
// consistent enough to restore without violating the solver's checked
// invariants: array lengths match n, every vertex id is in range, the
// stage/ecc encodings agree, and the removal counters tally exactly with
// the stage attribution. A snapshot passing Validate restores into a state
// indistinguishable from one computed in-process.
func (s *Snapshot) Validate(g *graph.Graph) error {
	if got := GraphHash(g); got != s.GraphHash {
		return fmt.Errorf("%w: snapshot %x.., graph %x..", ErrGraphMismatch, s.GraphHash[:6], got[:6])
	}
	n := g.NumVertices()
	if len(s.Ecc) != n || len(s.Stage) != n {
		return fmt.Errorf("%w: state arrays sized %d/%d, graph has %d vertices",
			ErrCorrupt, len(s.Ecc), len(s.Stage), n)
	}
	inRange := func(v uint32) bool { return int64(v) < int64(n) }
	if n > 0 && !inRange(s.Start) {
		return fmt.Errorf("%w: start vertex %d out of range", ErrCorrupt, s.Start)
	}
	if s.WitnessA != math.MaxUint32 && !inRange(s.WitnessA) {
		return fmt.Errorf("%w: witness %d out of range", ErrCorrupt, s.WitnessA)
	}
	if s.WitnessB != math.MaxUint32 && !inRange(s.WitnessB) {
		return fmt.Errorf("%w: witness %d out of range", ErrCorrupt, s.WitnessB)
	}
	if s.Bound < 0 || (n > 0 && int64(s.Bound) >= int64(n)) {
		return fmt.Errorf("%w: bound %d out of range for %d vertices", ErrCorrupt, s.Bound, n)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("%w: negative epsilon %d", ErrCorrupt, s.Epsilon)
	}
	if s.UbCap != -1 && (s.UbCap < s.Bound || (n > 0 && int64(s.UbCap) >= int64(n))) {
		return fmt.Errorf("%w: upper bound %d outside [%d, %d]", ErrCorrupt, s.UbCap, s.Bound, n-1)
	}

	// Per-vertex encoding agreement + counter tally (mirrors the
	// checked-build checkStateConsistency rules; stage numbering is core's:
	// 0 active, 1 degree-0, 2 winnow, 3 chain, 4 eliminate, 5 computed).
	const (
		stActive    = 0
		stDegree0   = 1
		stWinnow    = 2
		stChain     = 3
		stEliminate = 4
		stComputed  = 5
		numStages   = 6
	)
	var counts [numStages]int64
	for v := 0; v < n; v++ {
		st, ecc := s.Stage[v], s.Ecc[v]
		if st >= numStages {
			return fmt.Errorf("%w: vertex %d has invalid stage %d", ErrCorrupt, v, st)
		}
		counts[st]++
		bad := false
		switch st {
		case stActive:
			bad = ecc != math.MaxInt32
		case stWinnow:
			bad = ecc != -1
		case stDegree0:
			bad = ecc != 0
		case stComputed:
			bad = ecc < 0 || int64(ecc) >= int64(n)
		case stChain, stEliminate:
			bad = ecc < 0 || ecc == math.MaxInt32
		}
		if bad {
			return fmt.Errorf("%w: vertex %d stage %d disagrees with state %d", ErrCorrupt, v, st, ecc)
		}
	}
	c := &s.Counters
	for _, chk := range []struct {
		name string
		have int64
		want int64
	}{
		{"degree0", c.RemovedDegree0, counts[stDegree0]},
		{"winnow", c.RemovedWinnow, counts[stWinnow]},
		{"chain", c.RemovedChain, counts[stChain]},
		{"eliminate", c.RemovedEliminate, counts[stEliminate]},
		{"computed", c.Computed, counts[stComputed]},
	} {
		if chk.have != chk.want {
			return fmt.Errorf("%w: counter %s=%d but %d vertices attributed",
				ErrCorrupt, chk.name, chk.have, chk.want)
		}
	}
	return nil
}

// MarkRestored records a successful restore in the package metrics (the
// solver calls it after Validate passes and the state is installed).
func MarkRestored() { mRestores.Inc() }

// MarkRestoreFailed records a rejected resume attempt that did not go
// through Read (e.g. Validate failed after a successful parse).
func MarkRestoreFailed() { mRestoreErrors.Inc() }
