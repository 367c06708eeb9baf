package graph

import (
	"testing"
)

func benchGraph() *Graph {
	return randomGraph(42, 4096, 65536)
}

func BenchmarkFromEdges(b *testing.B) {
	g := benchGraph()
	edges := g.Edges()
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(n, edges)
	}
}

func BenchmarkOrient(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Orient(g)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(Vertex(i%1000), Vertex((i*7)%4096))
	}
}
