package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"fdiam/internal/graph"
)

// referenceReadEdgeList is the string-based edge-list parser ReadEdgeList
// replaced, kept verbatim as the oracle for the allocation-free scanner:
// every input must give the same graph from both, or the same error text.
// It ignores "# max-vertex" headers, the one intended difference.
func referenceReadEdgeList(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: edge list line %d: need two fields, got %q", lineNo, line)
		}
		a, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: edge list line %d: %v", lineNo, err)
		}
		c, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: edge list line %d: %v", lineNo, err)
		}
		if err := checkVertexCount(int64(a), "vertex id"); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := checkVertexCount(int64(c), "vertex id"); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		b.AddEdge(graph.Vertex(a), graph.Vertex(c))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: edge list: %w", err)
	}
	return b.Build(), nil
}

// checkMatchesReference asserts that ReadEdgeList and the reference agree
// on data. Where data holds a max-vertex header, ReadEdgeList may also
// fail on that header, or add isolated vertices the reference drops.
func checkMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ReadEdgeList(bytes.NewReader(data))
	want, wantErr := referenceReadEdgeList(bytes.NewReader(data))
	header := bytes.Contains(data, []byte("max-vertex"))
	if header && gotErr != nil && strings.Contains(gotErr.Error(), "max-vertex") {
		return
	}
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("errors differ on %q:\n got  %v\n want %v", data, gotErr, wantErr)
		}
	case header:
		if got.NumVertices() < want.NumVertices() || got.NumArcs() != want.NumArcs() {
			t.Fatalf("header input %q: got (%d,%d), reference (%d,%d)",
				data, got.NumVertices(), got.NumArcs(), want.NumVertices(), want.NumArcs())
		}
		if ge, we := got.Edges(), want.Edges(); fmt.Sprint(ge) != fmt.Sprint(we) {
			t.Fatalf("header input %q: edges differ", data)
		}
	default:
		sameGraph(t, want, got)
	}
}

// edgeListCorpus is the differential table: whitespace ASCII and Unicode
// treat differently, the edges of the uint32 range, malformed ids, extra
// columns, comments, and the scanner's 1 MiB line cap.
var edgeListCorpus = []string{
	"",
	"\n",
	"\r\n",
	"0 1",
	"0 1\n1 2\n2 0\n",
	"0\t1\n1\t\t2\n",
	"0 1\r\n1 2\r\n",
	"0\r1\n",
	"0\v1\n1\f2\n",
	"\v0 1\f\n\t2 3 \r\n",
	"007 0010\n",
	"4294967295 1\n",
	"4294967296 1\n",
	"1 4294967296\n",
	"00000000001 2\n",
	"12345678901 2\n",
	"99999999999999999999999 1\n",
	"67108865 0\n",
	"0 1\u00a0\n",
	"0\u00a01\n",
	"\u00a0# comment\n0 1\n",
	"5\u00a0\n",
	"0\u00851\n",
	"0 1\u0085\n",
	"0\u20281\n",
	"0\x851\n",
	"0 1\xff\n",
	"\xff 1\n",
	"1 2x\n",
	"1x 2\n",
	"+1 2\n",
	"-1 2\n",
	"1 -2\n",
	"1 2 3 4\n",
	"1 2 x\n",
	"1 2 999\n",
	"1_0 2\n",
	"0x1 2\n",
	"# comment\n% comment\n\n   \n0 1\n",
	"  # indented comment\n\t% tabbed comment\n0 1\n",
	"0 1\n#2 3\n1 #2\n",
	"5\n",
	"  5  \n",
	"5\t\r\n",
	"0 1\n\n\nfoo\n",
	"0 1\n" + strings.Repeat("9", 1<<20) + "\n",
	"# " + strings.Repeat("c", 1<<20) + "\n0 1\n",
	strings.Repeat(" ", 1<<20-8) + "0 1\n",
	"1 2 3\n" + strings.Repeat("0 1 ", 1<<18) + "\n",
}

func TestEdgeListMatchesReference(t *testing.T) {
	for _, in := range edgeListCorpus {
		checkMatchesReference(t, []byte(in))
	}
}

// FuzzEdgeListMatchesReference extends the table to arbitrary inputs. A
// lower MaxVertices keeps an 8-digit id from costing each parser a
// half-gigabyte offset array.
func FuzzEdgeListMatchesReference(f *testing.F) {
	defer func(old int) { MaxVertices = old }(MaxVertices)
	MaxVertices = 1 << 20
	for _, in := range edgeListCorpus {
		if len(in) <= 1<<12 {
			f.Add([]byte(in))
		}
	}
	f.Add([]byte("# max-vertex 5\n0 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		checkMatchesReference(t, data)
	})
}
