package graph

import (
	"fmt"
	"testing"
)

// Substrate micro-benchmarks: CSR construction and traversal primitives.

func buildRandomEdges(n, m int) []Edge {
	// Deterministic LCG, no dependency on internal/gen (import cycle).
	edges := make([]Edge, m)
	state := uint64(12345)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 16
	}
	for i := range edges {
		edges[i] = Edge{Vertex(next() % uint64(n)), Vertex(next() % uint64(n))}
	}
	return edges
}

func BenchmarkBuilderBuild(b *testing.B) {
	for _, size := range []struct{ n, m int }{{1 << 12, 1 << 15}, {1 << 16, 1 << 19}} {
		edges := buildRandomEdges(size.n, size.m)
		b.Run(fmt.Sprintf("n=%d/m=%d", size.n, size.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bd := NewBuilder(size.n)
				bd.AddEdges(edges)
				bd.Build()
			}
		})
	}
}

func BenchmarkNeighborIteration(b *testing.B) {
	g := FromEdges(1<<14, buildRandomEdges(1<<14, 1<<17))
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(Vertex(v)) {
				sum += int64(w)
			}
		}
	}
	_ = sum
}

func BenchmarkHasEdge(b *testing.B) {
	g := FromEdges(1<<12, buildRandomEdges(1<<12, 1<<16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(Vertex(i%(1<<12)), Vertex((i*7)%(1<<12)))
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := FromEdges(1<<15, buildRandomEdges(1<<15, 1<<16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(g)
	}
}
