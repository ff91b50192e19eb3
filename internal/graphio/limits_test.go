package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// hostileBinaryHeader builds a valid magic+header declaring n vertices and
// arcs arcs, followed by only body bytes of zeros — far less than the
// declared payload.
func hostileBinaryHeader(n, arcs uint64, body int) []byte {
	buf := make([]byte, 0, 24+body)
	buf = append(buf, binaryMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], n)
	binary.LittleEndian.PutUint64(hdr[8:16], arcs)
	buf = append(buf, hdr[:]...)
	return append(buf, make([]byte, body)...)
}

func TestBinaryHeaderVsSizeRejectedBeforeAlloc(t *testing.T) {
	// A 24-byte header claiming MaxVertices vertices would allocate an
	// 0.5 GiB offset array before hitting EOF; the size check must reject
	// it first. If the check is broken this test fails on the error being
	// nil (or times out allocating), not on a heuristic.
	data := hostileBinaryHeader(uint64(MaxVertices), 4, 0)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("hostile vertex count accepted")
	} else if !strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}

	// Hostile arc count with a plausible vertex count.
	data = hostileBinaryHeader(4, uint64(MaxVertices), 5*8)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("hostile arc count accepted")
	} else if !strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}

func TestBinarySizeCheckAppliesToFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.fg")
	if err := os.WriteFile(path, hostileBinaryHeader(1<<20, 1<<20, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadBinary(f); err == nil || !strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("want size rejection for file input, got %v", err)
	}
}

// opaque hides Len()/Stat() so inputSize reports unknown.
type opaque struct{ r io.Reader }

func (o opaque) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestBinaryUnknownSizeStillReads(t *testing.T) {
	g := gen.Grid2D(5, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(opaque{&buf})
	if err != nil {
		t.Fatalf("opaque reader rejected: %v", err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumArcs() != g.NumArcs() {
		t.Fatal("opaque read changed the graph")
	}
}

func TestMETISHeaderVsSize(t *testing.T) {
	if _, err := ReadMETIS(strings.NewReader("9999999 1\n2\n1\n")); err == nil ||
		!strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("hostile METIS vertex count: %v", err)
	}
	if _, err := ReadMETIS(strings.NewReader("3 7777777\n2\n1 3\n2\n")); err == nil ||
		!strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("hostile METIS edge count: %v", err)
	}
	// Legitimate file with isolated vertices keeps parsing.
	g, err := ReadMETIS(strings.NewReader("4 1\n2\n1\n\n\n"))
	if err != nil {
		t.Fatalf("legit METIS rejected: %v", err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("got %d vertices, want 4", g.NumVertices())
	}
}

func TestDIMACSArcCountVsSize(t *testing.T) {
	if _, err := ReadDIMACS(strings.NewReader("p sp 5 99999999\na 1 2 1\n")); err == nil ||
		!strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("hostile DIMACS arc count: %v", err)
	}
	// Sparse-but-legit: many isolated vertices, one edge. The vertex count
	// intentionally exceeds the byte count; only arcs are size-checked.
	g, err := ReadDIMACS(strings.NewReader("p sp 100 2\na 1 2 1\na 2 1 1\n"))
	if err != nil {
		t.Fatalf("sparse DIMACS rejected: %v", err)
	}
	if g.NumVertices() != 100 {
		t.Fatalf("got %d vertices, want 100", g.NumVertices())
	}
}

func TestMatrixMarketEntryCountVsSize(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 88888888\n1 2\n"
	if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil ||
		!strings.Contains(err.Error(), "truncated or hostile") {
		t.Fatalf("hostile nnz: %v", err)
	}
}

// assertCutsSurfaceReadError cuts read's input at every 7th byte with a
// failing reader behind the cut, the way a truncated file or an interrupted
// transfer ends. The read error must come back, not a complaint about the
// partial line bufio.Scanner still yields before it.
func assertCutsSurfaceReadError(t *testing.T, name string, data []byte, read func(io.Reader) (*graph.Graph, error)) {
	t.Helper()
	errCut := errors.New("read cut")
	masked := 0
	for cut := 0; cut < len(data); cut += 7 {
		r := io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(errCut))
		if _, err := read(r); !errors.Is(err, errCut) {
			if masked == 0 {
				t.Errorf("%s cut at byte %d of %d: got %v, want the read error", name, cut, len(data), err)
			}
			masked++
		}
	}
	if masked > 0 {
		t.Errorf("%s: %d of %d cuts hid the read error", name, masked, (len(data)+6)/7)
	}
	// The same bytes read whole still parse.
	if _, err := read(bytes.NewReader(data)); err != nil {
		t.Errorf("%s: uncut read: %v", name, err)
	}
}

func TestShortReadFaultInjection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Grid2D(20, 20)); err != nil {
		t.Fatal(err)
	}
	assertCutsSurfaceReadError(t, "binary", buf.Bytes(), ReadBinary)
}

func TestShortReadFaultInjectionTextFormats(t *testing.T) {
	g := gen.Grid2D(20, 20)
	for _, f := range []struct {
		name  string
		write func(io.Writer, *graph.Graph) error
		read  func(io.Reader) (*graph.Graph, error)
	}{
		{"edgelist", WriteEdgeList, ReadEdgeList},
		{"mtx", WriteMatrixMarket, ReadMatrixMarket},
		{"dimacs", WriteDIMACS, ReadDIMACS},
		{"metis", WriteMETIS, ReadMETIS},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf, g); err != nil {
			t.Fatal(err)
		}
		assertCutsSurfaceReadError(t, f.name, buf.Bytes(), f.read)
	}
}
