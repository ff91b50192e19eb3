package graphio

import (
	"bytes"
	"testing"

	"fdiam/internal/gen"
	"fdiam/internal/graph"
)

// BenchmarkReadAuto times fdiamd's load step on its own: ReadAuto over a
// 14k-vertex triangulation and a road graph, serialized the two ways
// fdiamd receives bodies. One op parses both graphs.
func BenchmarkReadAuto(b *testing.B) {
	gs := []*graph.Graph{
		gen.TriangularGrid(118, 118),
		gen.RoadNetwork(100, 100, 0.2, 7),
	}
	for _, format := range []struct {
		name  string
		write func(*bytes.Buffer, *graph.Graph) error
	}{
		{"text", func(w *bytes.Buffer, g *graph.Graph) error { return WriteEdgeList(w, g) }},
		{"binary", func(w *bytes.Buffer, g *graph.Graph) error { return WriteBinary(w, g) }},
	} {
		bodies := make([][]byte, len(gs))
		size := 0
		for i, g := range gs {
			var buf bytes.Buffer
			if err := format.write(&buf, g); err != nil {
				b.Fatal(err)
			}
			bodies[i] = buf.Bytes()
			size += buf.Len()
		}
		b.Run(format.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for b.Loop() {
				for _, body := range bodies {
					if _, err := ReadAuto(body); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
