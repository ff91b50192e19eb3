package graphio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadAuto checks that arbitrary input never panics any parser and
// that successfully parsed graphs are structurally valid.
func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("c hi\np sp 3 2\na 1 2 1\na 2 3 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"))
	f.Add([]byte("FDIAMG01garbage"))
	f.Add([]byte("# only comments\n"))
	f.Add([]byte("p sp 1000000000 1\n"))
	// Truncated / hostile-header seeds: declared counts the byte stream
	// cannot possibly hold, which must be rejected before allocation.
	f.Add([]byte("FDIAMG01\x00\x00\x00\x04\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte("FDIAMG01\x10\x00\x00\x00\x00\x00\x00\x00\x20\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("p sp 5 99999999\na 1 2 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 88888888\n1 2\n"))
	// A directed path 0→1→2 in binary CSR: structurally sound offsets and
	// targets, but not a simple undirected graph.
	f.Add([]byte("FDIAMG01\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00" +
		"\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" +
		"\x01\x00\x00\x00\x02\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		g, err := ReadAuto(data)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
	})
}

// FuzzReadMETIS does the same for the METIS parser (not covered by the
// auto-sniffer).
func FuzzReadMETIS(f *testing.F) {
	f.Add("2 1\n2\n1\n")
	f.Add("% c\n3 2 011 1\n7 2 5\n4 1 5 3 9\n6 2 9\n")
	f.Add("0 0\n")
	f.Add("9999999 1\n2\n1\n")
	f.Add("3 7777777\n2\n1 3\n2\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		g, err := ReadMETIS(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed METIS graph invalid: %v", err)
		}
	})
}

// FuzzBinaryRoundTripStability: writing any successfully parsed graph and
// re-reading it must reproduce it exactly.
func FuzzBinaryRoundTripStability(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n5 9\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if got.NumVertices() != g.NumVertices() || got.NumArcs() != g.NumArcs() {
			t.Fatal("binary round trip changed the graph")
		}
	})
}
