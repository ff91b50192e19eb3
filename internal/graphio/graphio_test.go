package graphio

import (
	"bytes"
	"strings"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumArcs(), b.NumVertices(), b.NumArcs())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.RandomConnected(120, 80, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

// TestEdgeListMaxVertexHeader: the "# max-vertex" line WriteEdgeList emits
// keeps isolated trailing vertices, so the path 0–1–2 plus isolated vertex 3
// reads back with 4 vertices (disconnected) instead of 3 (connected).
func TestEdgeListMaxVertexHeader(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{A: 0, B: 1}, {A: 1, B: 2}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)

	for in, n := range map[string]int{
		"# max-vertex -1\n":          0,
		"# max-vertex 9\n0 1\n":      10,
		"0 12\n# max-vertex 3\n":     13,
		"#  max-vertex 9\n0 1\n":     2, // not the header's spelling: a plain comment
		"# max-vertexes: 9\n0 1\n":   2,
		"% max-vertex 9\n0 1\n":      2,
		"# max-vertex 9 extra\n":     10,
		" \t# max-vertex 4\r\n0 1\n": 5,
	} {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil || g.NumVertices() != n {
			t.Errorf("%q: got %v, %v; want %d vertices", in, g, err, n)
		}
	}
	for _, in := range []string{
		"# max-vertex\n",
		"# max-vertex x\n",
		"# max-vertex -2\n",
		"# max-vertex 999999999999\n",
		"# max-vertex 99999999999999999999\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 1: ") {
			t.Errorf("%q: want a line-1 error, got %v", in, err)
		}
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 999
2	0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "1 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := gen.RoadNetwork(8, 8, 0.2, 3)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestDIMACSParsing(t *testing.T) {
	in := `c USA-road style
p sp 4 6
a 1 2 5
a 2 1 5
a 2 3 7
a 3 2 7
a 3 4 1
a 4 3 1
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := []string{
		"a 1 2 3\n",           // arc before problem line
		"p sp x 3\n",          // bad n
		"p sp 3 3\na 0 1 1\n", // 0-based id
		"p sp 3 3\na 1\n",     // short arc
		"q nonsense\n",        // unknown record
		"",                    // no problem line
	}
	for _, in := range cases {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(90, 3, 4)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestMatrixMarketParsing(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% comment
3 3 2
2 1
3 2
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\nx y z\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n0 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n",
	}
	for _, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(5).Build(), // isolated vertices survive
		gen.RMAT(8, 6, gen.DefaultRMAT, 9),
		gen.Grid2D(13, 7),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, got)
		if got.NumVertices() != g.NumVertices() {
			t.Fatal("vertex count lost")
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("BOGUS!!!")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("FDIAMG01\x00\x00")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadAutoDetection(t *testing.T) {
	el := "0 1\n1 2\n"
	g, err := ReadAuto([]byte(el))
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("edge list auto: %v", err)
	}

	dimacs := "c x\np sp 3 2\na 1 2 1\na 2 3 1\n"
	g, err = ReadAuto([]byte(dimacs))
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("dimacs auto: %v", err)
	}

	mm := "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
	g, err = ReadAuto([]byte(mm))
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("matrix market auto: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteBinary(&buf, gen.Path(4)); err != nil {
		t.Fatal(err)
	}
	g, err = ReadAuto(buf.Bytes())
	if err != nil || g.NumEdges() != 3 {
		t.Fatalf("binary auto: %v", err)
	}
}

func TestMETISRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RandomConnected(70, 50, 8),
		gen.Disjoint(gen.Path(6), graph.NewBuilder(3).Build()), // isolated vertices
		graph.NewBuilder(0).Build(),
	} {
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("read: %v\n%s", err, buf.String())
		}
		sameGraph(t, g, got)
	}
}

func TestMETISParsing(t *testing.T) {
	// The example from the METIS manual (unweighted, 7 vertices 11 edges).
	in := `% a comment
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 7 || g.NumEdges() != 11 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestMETISWeightsAreSkipped(t *testing.T) {
	// fmt=011: vertex weights (1 per vertex) then edge weights.
	in := `3 2 011 1
7 2 5
4 1 5 3 9
6 2 9
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges wrong")
	}
}

func TestMETISErrors(t *testing.T) {
	cases := []string{
		"x 2\n",             // bad n
		"2 x\n",             // bad m
		"2 1\n2\n",          // missing second line
		"2 1\n3\n1\n",       // neighbor out of range
		"2 1\n0\n1\n",       // 0-based neighbor
		"2 1 001\n2\n1\n",   // missing edge weight
		"2 1 010 0\n2\n1\n", // bad ncon
		"0 0 00000\n",       // fmt longer than 3 digits
	}
	for _, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestMaxVerticesGuard(t *testing.T) {
	huge := "p sp 1000000000 1\na 1 2 1\n"
	if _, err := ReadDIMACS(strings.NewReader(huge)); err == nil {
		t.Error("DIMACS accepted a billion-vertex header")
	}
	if _, err := ReadEdgeList(strings.NewReader("999999999 1\n")); err == nil {
		t.Error("edge list accepted a billion-vertex id")
	}
	if _, err := ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate pattern symmetric\n999999999 2 1\n1 2\n")); err == nil {
		t.Error("matrix market accepted a billion-row header")
	}
	if _, err := ReadMETIS(strings.NewReader("999999999 1\n")); err == nil {
		t.Error("METIS accepted a billion-vertex header")
	}
}
