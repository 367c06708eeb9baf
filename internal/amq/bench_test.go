package amq

import (
	"fmt"
	"testing"
)

func benchKeys(n int) []uint64 {
	keys := make([]uint64, n)
	s := uint64(0xabcdef)
	for i := range keys {
		s = s*6364136223846793005 + 1442695040888963407
		keys[i] = s
	}
	return keys
}

func BenchmarkBloomInsert(b *testing.B) {
	for _, bits := range []float64{8, 16} {
		b.Run(fmt.Sprintf("bits=%v", bits), func(b *testing.B) {
			keys := benchKeys(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := newBloom(len(keys), bits)
				for _, k := range keys {
					f.Insert(k)
				}
			}
		})
	}
}

func BenchmarkBloomQuery(b *testing.B) {
	keys := benchKeys(1024)
	f := newBloom(len(keys), 8)
	for _, k := range keys {
		f.Insert(k)
	}
	probes := benchKeys(4096)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, k := range probes {
			if f.MayContain(k) {
				hits++
			}
		}
	}
	_ = hits
}

func BenchmarkLoadFPR(b *testing.B) {
	f := newBloom(4096, 8)
	for _, k := range benchKeys(4096) {
		f.Insert(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.LoadFPR()
	}
}
