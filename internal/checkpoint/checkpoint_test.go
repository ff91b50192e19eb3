package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
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

func TestRoundTrip(t *testing.T) {
	g := gen.Path(16)
	s := testSnapshot(g)
	got := writeRead(t, g, s)

	if got.Bound != s.Bound || got.Start != s.Start || got.WitnessA != s.WitnessA ||
		got.WitnessB != s.WitnessB ||
		got.Infinite != s.Infinite || got.WinnowDepth != s.WinnowDepth {
		t.Fatalf("scalar fields differ: got %+v", got)
	}
	if got.Counters != s.Counters {
		t.Fatalf("counters differ: got %+v want %+v", got.Counters, s.Counters)
	}
	for v := range s.Ecc {
		if got.Ecc[v] != s.Ecc[v] || got.Stage[v] != s.Stage[v] {
			t.Fatalf("vertex %d state differs: %d/%d vs %d/%d",
				v, got.Ecc[v], got.Stage[v], s.Ecc[v], s.Stage[v])
		}
	}
}

func TestDeterministicEncoding(t *testing.T) {
	g := gen.Path(8)
	s := testSnapshot(g)
	a, b := s.encode(), s.encode()
	if string(a) != string(b) {
		t.Fatal("two encodings of the same snapshot differ")
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
