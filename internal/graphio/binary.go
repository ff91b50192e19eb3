package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fdiam/internal/graph"
)

// binaryMagic identifies the fdiam binary CSR format, version 1.
const binaryMagic = "FDIAMG01"

// WriteBinary serializes g in the binary CSR format: magic, n (uint64),
// arcs (uint64), the offset array (uint64 little endian) and the target
// array (uint32 little endian). Loading is a straight bulk read — the
// format the experiment harness uses to cache generated graphs.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumArcs()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, o := range g.Offsets() {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, t := range g.Targets() {
		binary.LittleEndian.PutUint32(buf[:4], t)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary, validating the
// CSR structure. When the input's size is knowable (in-memory readers,
// regular files) the header's declared counts are checked against it BEFORE
// the offset/target arrays are allocated — the format's fixed layout makes
// the requirement exact, so a 24-byte header claiming 2²⁶ vertices is
// rejected without allocating its half-gigabyte offset array. The arrays
// are decoded through one fixed-size chunk, never staged whole.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	size, sizeKnown := inputSize(r)
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, fmt.Errorf("graphio: binary: %w", err)
	}
	if string(hdr[:8]) != binaryMagic {
		return nil, fmt.Errorf("graphio: binary: bad magic %q", hdr[:8])
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return nil, fmt.Errorf("graphio: binary: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	arcs := binary.LittleEndian.Uint64(hdr[16:24])
	if n > uint64(MaxVertices) {
		return nil, fmt.Errorf("graphio: binary: vertex count %d exceeds MaxVertices (%d)", n, MaxVertices)
	}
	if arcs > 64*uint64(MaxVertices) {
		return nil, fmt.Errorf("graphio: binary: implausible arc count %d", arcs)
	}
	if sizeKnown {
		// Exact requirement: magic + header + offsets + targets.
		need := int64(8+16) + 8*int64(n+1) + 4*int64(arcs)
		if size < need {
			return nil, fmt.Errorf("graphio: binary: header declares %d vertices / %d arcs needing %d bytes, input has %d (truncated or hostile header)",
				n, arcs, need, size)
		}
	}
	chunk := make([]byte, 64<<10)
	offsets := make([]int64, n+1)
	if err := readChunks(r, chunk, len(offsets), 8, func(i int, b []byte) {
		for ; len(b) > 0; b = b[8:] {
			offsets[i] = int64(binary.LittleEndian.Uint64(b))
			i++
		}
	}); err != nil {
		return nil, fmt.Errorf("graphio: binary: offsets: %w", err)
	}
	targets := make([]graph.Vertex, arcs)
	if err := readChunks(r, chunk, len(targets), 4, func(i int, b []byte) {
		for ; len(b) > 0; b = b[4:] {
			targets[i] = binary.LittleEndian.Uint32(b)
			i++
		}
	}); err != nil {
		return nil, fmt.Errorf("graphio: binary: targets: %w", err)
	}
	return graph.FromCSR(offsets, targets)
}

// readChunks reads count elements of width bytes each from r, one chunk
// at a time, and hands decode each chunk with the index of its first
// element.
func readChunks(r io.Reader, chunk []byte, count, width int, decode func(first int, b []byte)) error {
	per := len(chunk) / width
	for i := 0; i < count; i += per {
		b := chunk[:min(per, count-i)*width]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		decode(i, b)
	}
	return nil
}
