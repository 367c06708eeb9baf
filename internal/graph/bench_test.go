package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func benchGraph() *Graph {
	return randomGraph(42, 4096, 65536)
}

// BenchmarkFromEdges builds a 2^16-vertex graph of about 2^20 edges from
// its edges in ascending order, where the rows arrive sorted and FromEdges
// sorts them one by one, and from the same edges shuffled, where the rows
// arrive in random order and it sorts them by counting passes.
func BenchmarkFromEdges(b *testing.B) {
	g := randomGraph(42, 1<<16, 1<<20)
	n, ascending := g.NumVertices(), g.Edges()
	shuffled := slices.Clone(ascending)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name  string
		edges []Edge
	}{{"ascending", ascending}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FromEdges(n, c.edges)
			}
		})
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
