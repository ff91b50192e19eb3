// Package graphio reads and writes graphs in the formats the paper's input
// collections use: whitespace-separated edge lists (SNAP), the DIMACS
// shortest-path challenge format (USA-road-d.*), Matrix Market coordinate
// files (SuiteSparse), and a fast binary CSR format for caching generated
// graphs between experiment runs.
package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"fdiam/internal/graph"
)

// MaxVertices caps the vertex count a loader will accept from untrusted
// input. Headers are attacker-controlled: a one-line DIMACS file can claim
// 10⁹ vertices and make the loader allocate gigabytes before reading a
// single edge. The default (2²⁶ ≈ 67 M) comfortably covers every input in
// the paper's collection; raise it for genuinely larger datasets.
var MaxVertices = 1 << 26

// checkVertexCount validates an untrusted vertex count or id bound.
func checkVertexCount(n int64, what string) error {
	if n < 0 || n > int64(MaxVertices) {
		return fmt.Errorf("graphio: %s %d exceeds MaxVertices (%d)", what, n, MaxVertices)
	}
	return nil
}

// ReadEdgeList parses a SNAP-style edge list: one "u v" pair per line,
// '#' and '%' comment lines ignored, arbitrary whitespace. Vertex ids are
// non-negative integers; the graph grows to the largest id seen, or to N+1
// vertices when a "# max-vertex N" header (which WriteEdgeList writes)
// names a larger one. Weights or extra columns after the first two are
// ignored.
//
// A plain "u v" line is parsed in place by scanEdge and costs no
// allocation; blank, comment, Unicode and malformed lines take parseLine.
func ReadEdgeList(r io.Reader) (_ *graph.Graph, err error) {
	b := graph.NewBuilder(0)
	if size, ok := inputSize(r); ok {
		// An edge line with ids of three or more digits takes at least
		// 8 bytes, so this reserves the edges once for typical inputs.
		b.ReserveEdges(int(size / 8))
	}
	sc := bufio.NewScanner(r)
	defer keepReadErr(sc, &err)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		a, c, ok := scanEdge(line)
		if !ok {
			var err error
			if a, c, ok, err = parseLine(line, lineNo, b); err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
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

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanEdge parses the common edge line: two decimal ids of at most
// MaxUint32, separated by ASCII whitespace, with any further columns
// after whitespace. ok is false for every other line. When it is true,
// strings.Fields and strconv.ParseUint would read the same two ids, since
// ASCII whitespace and digits mean the same to them.
func scanEdge(line []byte) (a, c uint64, ok bool) {
	i := skipSpace(line, 0)
	if a, i, ok = scanID(line, i); !ok || i == len(line) || !asciiSpace[line[i]] {
		return 0, 0, false
	}
	if c, i, ok = scanID(line, skipSpace(line, i)); !ok || (i < len(line) && !asciiSpace[line[i]]) {
		return 0, 0, false
	}
	return a, c, true
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && asciiSpace[line[i]] {
		i++
	}
	return i
}

// scanID reads the decimal digits starting at line[i]. ok is false when
// there are none or their value exceeds MaxUint32.
func scanID(line []byte, i int) (v uint64, end int, ok bool) {
	start := i
	for ; i < len(line); i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		if v = v*10 + uint64(d); v > math.MaxUint32 {
			return 0, i, false
		}
	}
	return v, i, i > start
}

// parseLine reads a line scanEdge did not accept, exactly as a
// strings.TrimSpace and strings.Fields split reads it. edge is false for
// blank and comment lines (a max-vertex header is honoured on the way); a
// malformed line gets its error text from strconv.ParseUint on the
// offending field.
func parseLine(line []byte, lineNo int, b *graph.Builder) (a, c uint64, edge bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' || line[0] == '%' {
		if err := readMaxVertex(line, b); err != nil {
			return 0, 0, false, fmt.Errorf("line %d: %w", lineNo, err)
		}
		return 0, 0, false, nil
	}
	fields := bytes.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("graphio: edge list line %d: need two fields, got %q", lineNo, line)
	}
	if a, err = strconv.ParseUint(string(fields[0]), 10, 32); err != nil {
		return 0, 0, false, fmt.Errorf("graphio: edge list line %d: %v", lineNo, err)
	}
	if c, err = strconv.ParseUint(string(fields[1]), 10, 32); err != nil {
		return 0, 0, false, fmt.Errorf("graphio: edge list line %d: %v", lineNo, err)
	}
	return a, c, true, nil
}

// readMaxVertex honours WriteEdgeList's "# max-vertex N" header, which
// keeps isolated trailing vertices in a round trip: the graph gets at
// least N+1 vertices. Any other comment is ignored.
func readMaxVertex(comment []byte, b *graph.Builder) error {
	if !bytes.HasPrefix(comment, []byte("# max-vertex")) {
		return nil
	}
	fs := bytes.Fields(comment)
	if string(fs[1]) != "max-vertex" {
		return nil
	}
	if len(fs) < 3 {
		return errors.New("graphio: edge list: max-vertex header has no value")
	}
	maxV, err := strconv.ParseInt(string(fs[2]), 10, 64)
	if err != nil {
		return fmt.Errorf("graphio: edge list: max-vertex header: %v", err)
	}
	if err := checkVertexCount(maxV+1, "max-vertex header vertex count"); err != nil {
		return err
	}
	b.Grow(int(maxV + 1))
	return nil
}

// WriteEdgeList writes one "u v" line per undirected edge (u < v), plus a
// header comment with the vertex count so isolated trailing vertices
// survive a round trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# fdiam edge list: %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "# max-vertex %d\n", g.NumVertices()-1); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, t := range g.Neighbors(graph.Vertex(v)) {
			if graph.Vertex(v) < t {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, t); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadAuto sniffs the format from the first non-blank line: "%%MatrixMarket"
// selects Matrix Market, a line starting with 'p' or 'a'/'c' selects DIMACS,
// FDIAM binary magic selects binary CSR, and anything else falls back to a
// plain edge list. The reader must be rewindable, so ReadAuto takes the
// whole content; it sniffs and parses data in place, without copying it.
func ReadAuto(data []byte) (*graph.Graph, error) {
	r := bytes.NewReader(data)
	if bytes.HasPrefix(data, []byte(binaryMagic)) {
		return ReadBinary(r)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case bytes.HasPrefix(trimmed, []byte("%%MatrixMarket")):
		return ReadMatrixMarket(r)
	case bytes.HasPrefix(trimmed, []byte("p ")) || bytes.HasPrefix(trimmed, []byte("c ")) || bytes.HasPrefix(trimmed, []byte("a ")):
		return ReadDIMACS(r)
	default:
		return ReadEdgeList(r)
	}
}
