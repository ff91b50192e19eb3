package checkpoint

import (
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// testSnapshot builds a structurally valid snapshot for g with a few
// vertices in every stage class.
func testSnapshot(g *graph.Graph) *Snapshot {
	n := g.NumVertices()
	s := &Snapshot{
		GraphHash:   GraphHash(g),
		Bound:       5,
		Start:       0,
		WitnessA:    0,
		WitnessB:    uint32(n - 1),
		Infinite:    false,
		UbCap:       int32(n - 1),
		Ecc:         make([]int32, n),
		Stage:       make([]uint8, n),
		WinnowDepth: 2,
	}
	for v := 0; v < n; v++ {
		s.Ecc[v] = math.MaxInt32 // active
	}
	// One of each removal class, keeping counters in tally.
	s.Ecc[0], s.Stage[0] = 5, 5 // computed
	s.Counters.Computed = 1
	s.Ecc[1], s.Stage[1] = -1, 2 // winnowed
	s.Counters.RemovedWinnow = 1
	s.Ecc[2], s.Stage[2] = 4, 4 // eliminated with recorded bound
	s.Counters.RemovedEliminate = 1
	s.Ecc[3], s.Stage[3] = 6, 3 // chain
	s.Counters.RemovedChain = 1
	s.Counters.EccBFS = 7
	s.Counters.TimeTotal = 1234567
	return s
}

func writeRead(t *testing.T, g *graph.Graph, s *Snapshot) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), FileName)
	if err := Write(path, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if err := got.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return got
}

// roundTripSnapshot is a valid snapshot of gen.Path(16) in which every
// field, counters included, holds a distinct non-zero value, so a decoder
// that dropped a field or swapped two of the same width reads back a
// different snapshot.
func roundTripSnapshot(g *graph.Graph) *Snapshot {
	n := g.NumVertices()
	s := &Snapshot{
		GraphHash:   GraphHash(g),
		Bound:       5,
		Start:       3,
		WitnessA:    7,
		WitnessB:    12,
		Infinite:    true,
		Epsilon:     2,
		UbCap:       9,
		Ecc:         make([]int32, n),
		Stage:       make([]uint8, n),
		WinnowDepth: 4,
		Counters: Counters{
			EccBFS: 11, WinnowCalls: 13, EliminateCalls: 17, EliminateVisited: 19,
			BoundImprovements: 23, DirSwitches: 29,
			TimeInit: 31, TimeEcc: 37, TimeWinnow: 41, TimeChain: 43, TimeEliminate: 47, TimeTotal: 53,
		},
	}
	// Stage classes in runs of 1..5 vertices (computed, winnow, chain,
	// eliminate, degree-0), so the removal counters differ too; the last
	// vertex stays active.
	v := 0
	for i, c := range []struct {
		stage   uint8
		ecc     int32
		counter *int64
	}{
		{5, 6, &s.Counters.Computed},
		{2, -1, &s.Counters.RemovedWinnow},
		{3, 8, &s.Counters.RemovedChain},
		{4, 7, &s.Counters.RemovedEliminate},
		{1, 0, &s.Counters.RemovedDegree0},
	} {
		for k := 0; k <= i; k++ {
			s.Stage[v], s.Ecc[v] = c.stage, c.ecc
			*c.counter++
			v++
		}
	}
	for ; v < n; v++ {
		s.Ecc[v] = math.MaxInt32
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	g := gen.Path(16)
	s := roundTripSnapshot(g)
	// The fixture is only as strong as its values: each scalar field and
	// counter must be non-zero and differ from every other of its type.
	seen := map[any]string{}
	for _, st := range []reflect.Value{reflect.ValueOf(*s), reflect.ValueOf(s.Counters)} {
		for i := 0; i < st.NumField(); i++ {
			f, name := st.Field(i), st.Type().Field(i).Name
			if f.IsZero() {
				t.Fatalf("fixture field %s is zero", name)
			}
			if f.Kind() == reflect.Slice || f.Kind() == reflect.Struct {
				continue
			}
			if prev, dup := seen[f.Interface()]; dup {
				t.Fatalf("fixture fields %s and %s share the value %v", prev, name, f.Interface())
			}
			seen[f.Interface()] = name
		}
	}
	got := writeRead(t, g, s)
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the snapshot:\ngot  %+v\nwant %+v", got, s)
	}
}

// TestDeterministicEncoding pins the payload byte for byte: the encoding
// of the gen.Path(8) fixture, field by field in payload order. A change to
// the layout, a field's width or endianness, or the encoder's field order
// shows here; a deliberate one bumps the payload version and this golden.
func TestDeterministicEncoding(t *testing.T) {
	golden := strings.Join([]string{
		"05000000", // payload version
		"dcb12d3328320a552bf79a98397106f79b7beb2767054920041047aece0042fc", // graph hash
		"05000000",         // bound
		"00000000",         // start
		"00000000",         // witness A
		"07000000",         // witness B
		"00000000",         // flags (infinite)
		"02000000",         // winnow depth
		"00000000",         // epsilon
		"07000000",         // upper-bound cap
		"0700000000000000", // EccBFS
		"0000000000000000", // WinnowCalls
		"0000000000000000", // EliminateCalls
		"0000000000000000", // EliminateVisited
		"0000000000000000", // BoundImprovements
		"0000000000000000", // DirSwitches
		"0100000000000000", // RemovedWinnow
		"0100000000000000", // RemovedEliminate
		"0100000000000000", // RemovedChain
		"0000000000000000", // RemovedDegree0
		"0100000000000000", // Computed
		"0000000000000000", // TimeInit
		"0000000000000000", // TimeEcc
		"0000000000000000", // TimeWinnow
		"0000000000000000", // TimeChain
		"0000000000000000", // TimeEliminate
		"87d6120000000000", // TimeTotal
		"0800000000000000", // vertex count
		"05000000ffffffff0400000006000000ffffff7fffffff7fffffff7fffffff7f", // ecc
		"0502040300000000", // stage
	}, "")
	if got := hex.EncodeToString(testSnapshot(gen.Path(8)).encode()); got != golden {
		t.Fatalf("encoding changed:\ngot  %s\nwant %s", got, golden)
	}
}

// TestCorruptionRejected flips every byte of a valid snapshot file in turn
// and asserts no corruption is ever accepted silently.
func TestCorruptionRejected(t *testing.T) {
	g := gen.Path(8)
	path := filepath.Join(t.TempDir(), FileName)
	if err := Write(path, testSnapshot(g)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := parse(mut); err == nil {
			t.Fatalf("byte %d corruption accepted", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
	// Truncations at every length must be rejected too.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := parse(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", cut, err)
		}
	}
}

func TestGraphMismatchRejected(t *testing.T) {
	g := gen.Path(8)
	other := gen.Cycle(8)
	s := testSnapshot(g)
	got := writeRead(t, g, s)
	if err := got.Validate(other); !errors.Is(err, ErrGraphMismatch) {
		t.Fatalf("Validate on wrong graph: %v", err)
	}
}

func TestValidateCatchesInconsistency(t *testing.T) {
	g := gen.Path(8)
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"counter-tally", func(s *Snapshot) { s.Counters.Computed = 99 }},
		{"stage-encoding", func(s *Snapshot) { s.Stage[0] = 2 }}, // winnow stage, computed ecc
		{"stage-invalid", func(s *Snapshot) { s.Stage[0] = 17 }},
		{"bound-range", func(s *Snapshot) { s.Bound = 1 << 20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot(g)
			tc.mut(s)
			if err := s.Validate(g); err == nil {
				t.Fatal("inconsistent snapshot validated")
			}
		})
	}
}

// TestTornWriteLeavesOldSnapshot leaves what a crash mid-write leaves: a
// half-written temp file beside a good snapshot. Read must still return
// the good snapshot, and the next Write must replace it.
func TestTornWriteLeavesOldSnapshot(t *testing.T) {
	g := gen.Path(8)
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)

	first := testSnapshot(g)
	if err := Write(path, first); err != nil {
		t.Fatal(err)
	}
	second := testSnapshot(g)
	second.Bound = 7
	whole := second.encode()
	torn := filepath.Join(dir, FileName+".tmp123")
	if err := os.WriteFile(torn, append([]byte(magic), whole[:len(whole)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Read(path)
	if err != nil {
		t.Fatalf("old snapshot unreadable beside a torn temp file: %v", err)
	}
	if got.Bound != first.Bound {
		t.Fatalf("old snapshot clobbered: bound %d", got.Bound)
	}
	if err := Write(path, second); err != nil {
		t.Fatalf("write after a torn write: %v", err)
	}
	got, err = Read(path)
	if err != nil || got.Bound != 7 {
		t.Fatalf("replacement write: %v, bound %d", err, got.Bound)
	}
}

// TestFailedPublishLeavesNoTemp makes the final rename fail for real: path
// names a non-empty directory. Write must fail, count the failure, and
// remove its temp file.
func TestFailedPublishLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := mWriteErrors.Value()
	if err := Write(path, testSnapshot(gen.Path(8))); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	if got := mWriteErrors.Value() - before; got != 1 {
		t.Errorf("fdiam_checkpoint_write_errors_total rose by %d, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("directory after a failed publish holds %v, want only %s", entries, FileName)
	}
}

func TestGraphHashDistinguishesGraphs(t *testing.T) {
	a, b := gen.Path(32), gen.Cycle(32)
	if GraphHash(a) == GraphHash(b) {
		t.Fatal("different graphs hash identically")
	}
	if GraphHash(a) != GraphHash(gen.Path(32)) {
		t.Fatal("identical graphs hash differently")
	}
}
