package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fdiam/internal/graph"
)

// ReadMETIS parses the METIS/Chaco graph format used throughout the HPC
// graph-partitioning ecosystem (and by several SuiteSparse mirrors):
//
//	% comments
//	<n> <m> [fmt [ncon]]
//	<adjacency of vertex 1, 1-based ids> [with weights when fmt says so]
//	...
//
// fmt is a three-digit flag string: 1xx = vertex sizes, x1x = vertex
// weights (ncon per vertex), xx1 = edge weights. Weights are parsed and
// discarded (this module's graphs are unweighted). Each edge normally
// appears in both endpoint lines; the builder deduplicates.
func ReadMETIS(r io.Reader) (_ *graph.Graph, err error) {
	size, sizeKnown := inputSize(r)
	sc := bufio.NewScanner(r)
	defer keepReadErr(sc, &err)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header.
	var n int
	var hasVSize, hasVWeight, hasEWeight bool
	ncon := 1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: metis line %d: bad header %q", lineNo, line)
		}
		var err error
		n, err = strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graphio: metis line %d: %v", lineNo, err)
		}
		if err := checkVertexCount(int64(n), "vertex count"); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		m, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graphio: metis line %d: %v", lineNo, err)
		}
		// Every vertex owns an adjacency line (>= 1 byte for its newline)
		// and every declared edge at least one 1-based id plus separator
		// (>= 2 bytes), so either count exceeding the input size proves the
		// header hostile before NewBuilder's O(n) allocation.
		if err := checkDeclared(int64(n), 1, size, sizeKnown, "vertices"); err != nil {
			return nil, err
		}
		if err := checkDeclared(int64(m), 2, size, sizeKnown, "edges"); err != nil {
			return nil, err
		}
		if len(fields) >= 3 {
			f := fields[2]
			if len(f) > 3 {
				return nil, fmt.Errorf("graphio: metis line %d: fmt %q has more than 3 digits", lineNo, f)
			}
			if len(f) != 3 {
				// Single- or two-digit fmt values are allowed and
				// left-padded with zeros per the METIS manual.
				f = strings.Repeat("0", 3-len(f)) + f
			}
			hasVSize = f[0] == '1'
			hasVWeight = f[1] == '1'
			hasEWeight = f[2] == '1'
		}
		if len(fields) >= 4 {
			var err error
			ncon, err = strconv.Atoi(fields[3])
			if err != nil || ncon < 1 {
				return nil, fmt.Errorf("graphio: metis line %d: bad ncon %q", lineNo, fields[3])
			}
		}
		break
	}
	if n == 0 && !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}

	b := graph.NewBuilder(n)
	v := 0
	for v < n && sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line != "" && line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		idx := 0
		if hasVSize {
			idx++
		}
		if hasVWeight {
			idx += ncon
		}
		if idx > len(fields) {
			return nil, fmt.Errorf("graphio: metis line %d: vertex %d missing weights", lineNo, v+1)
		}
		for idx < len(fields) {
			w, err := strconv.ParseUint(fields[idx], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graphio: metis line %d: %v", lineNo, err)
			}
			if w == 0 || int(w) > n {
				return nil, fmt.Errorf("graphio: metis line %d: neighbor %d out of 1..%d", lineNo, w, n)
			}
			idx++
			if hasEWeight {
				if idx >= len(fields) {
					return nil, fmt.Errorf("graphio: metis line %d: missing edge weight", lineNo)
				}
				idx++
			}
			b.AddEdge(graph.Vertex(v), graph.Vertex(w-1))
		}
		v++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if v != n {
		return nil, fmt.Errorf("graphio: metis: got %d adjacency lines, want %d", v, n)
	}
	return b.Build(), nil
}

// WriteMETIS writes g in plain METIS format (no weights). Isolated
// vertices produce empty adjacency lines, which the format supports.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(graph.Vertex(v))
		for i, t := range adj {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(t)+1, 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
