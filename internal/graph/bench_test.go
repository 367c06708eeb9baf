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

func BenchmarkCompress(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(g)
	}
}

// BenchmarkCompressedVsRawCount compares triangle counting on the raw CSR
// against the delta-varint compressed form (space/time trade-off of
// Dhulipala et al.).
func BenchmarkCompressedVsRawCount(b *testing.B) {
	g := benchGraph()
	b.Run("raw", func(b *testing.B) {
		o := Orient(g)
		b.ResetTimer()
		var count uint64
		for i := 0; i < b.N; i++ {
			count = 0
			for v := 0; v < g.NumVertices(); v++ {
				nv := o.Out(Vertex(v))
				for _, u := range nv {
					count += CountIntersect(nv, o.Out(u))
				}
			}
		}
		b.ReportMetric(float64(count), "triangles")
		b.ReportMetric(float64(8*len(o.out)), "bytes")
	})
	b.Run("compressed", func(b *testing.B) {
		co := CompressOriented(g)
		b.ResetTimer()
		var count uint64
		for i := 0; i < b.N; i++ {
			count = co.CountTriangles()
		}
		b.ReportMetric(float64(count), "triangles")
		b.ReportMetric(float64(co.SizeBytes()), "bytes")
	})
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(Vertex(i%1000), Vertex((i*7)%4096))
	}
}
