package gen

import (
	"fmt"
	"testing"
)

// benchSizes are the vertex counts of the generator benchmarks: a small
// graph, and one at the size of the repository benchmark's R-MAT rows.
var benchSizes = []int{1 << 12, 1 << 16}

// benchEach runs gen once per iteration at each of benchSizes.
func benchEach(b *testing.B, gen func(n int, seed uint64)) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen(n, uint64(i))
			}
		})
	}
}

func BenchmarkGNM(b *testing.B) {
	benchEach(b, func(n int, seed uint64) { GNM(n, 16*n, seed) })
}

func BenchmarkRMAT(b *testing.B) {
	benchEach(b, func(n int, seed uint64) {
		scale := 0
		for 1<<scale < n {
			scale++
		}
		RMAT(DefaultRMAT(scale, seed))
	})
}

func BenchmarkRGG2D(b *testing.B) {
	benchEach(b, func(n int, seed uint64) { RGG2D(n, 16, seed) })
}

func BenchmarkRHG(b *testing.B) {
	benchEach(b, func(n int, seed uint64) {
		RHG(RHGConfig{N: n, AvgDegree: 32, Gamma: 2.8, Seed: seed})
	})
}

func BenchmarkWebGraph(b *testing.B) {
	benchEach(b, func(n int, seed uint64) {
		WebGraph(WebConfig{N: n, HostSize: 32, IntraP: 0.4, LongFactor: 3, Seed: seed})
	})
}

// BenchmarkRoadNetwork builds the square grid of about n vertices.
func BenchmarkRoadNetwork(b *testing.B) {
	benchEach(b, func(n int, seed uint64) {
		side := 1
		for side*side < n {
			side++
		}
		RoadNetwork(side, side, 0.3, seed)
	})
}

func BenchmarkSplitMix64(b *testing.B) {
	rng := NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x += rng.Next()
	}
	_ = x
}
