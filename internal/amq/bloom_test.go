package amq

import (
	"math"
	"testing"
	"testing/quick"
)

func insertedKeys(seed uint64, n int) []uint64 {
	keys := make([]uint64, n)
	s := seed
	for i := range keys {
		s = s*6364136223846793005 + 1442695040888963407
		keys[i] = s
	}
	return keys
}

func newBloom(n int, bitsPerKey float64) *Bloom {
	_, f := AppendBloom(nil, n, bitsPerKey)
	return &f
}

func TestBloomNoFalseNegatives(t *testing.T) {
	check := func(seed uint64) bool {
		keys := insertedKeys(seed, 200)
		f := newBloom(len(keys), 8)
		for _, k := range keys {
			f.Insert(k)
		}
		for _, k := range keys {
			if !f.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func measureFPR(f *Bloom, inserted map[uint64]bool, probes int) float64 {
	fp := 0
	s := uint64(0xdecafbad)
	tested := 0
	for tested < probes {
		s = s*6364136223846793005 + 1442695040888963407
		if inserted[s] {
			continue
		}
		tested++
		if f.MayContain(s) {
			fp++
		}
	}
	return float64(fp) / float64(probes)
}

func TestBloomFPRWithinBudget(t *testing.T) {
	const n = 2000
	keys := insertedKeys(99, n)
	set := make(map[uint64]bool, n)
	f := newBloom(n, 10)
	for _, k := range keys {
		f.Insert(k)
		set[k] = true
	}
	measured := measureFPR(f, set, 200000)
	// The classic estimate (1 − e^{−kn/m})^k for n inserted keys.
	predicted := math.Pow(1-math.Exp(-float64(f.k)*n/float64(f.m)), float64(f.k))
	// 10 bits/key ⇒ predicted ≈ 0.8%. Allow generous slack, but both
	// directions must be sane and the prediction must be in the ballpark.
	if measured > 3*predicted+0.005 {
		t.Fatalf("measured FPR %.4f far above predicted %.4f", measured, predicted)
	}
	if predicted > 0.05 {
		t.Fatalf("predicted FPR %.4f unexpectedly high", predicted)
	}
}

func TestBloomWordsRoundTrip(t *testing.T) {
	words, f := AppendBloom([]uint64{42}, 100, 8)
	keys := insertedKeys(5, 100)
	for _, k := range keys {
		f.Insert(k)
	}
	if words[0] != 42 {
		t.Fatal("appending the filter clobbered the words before it")
	}
	g, err := ViewBloom(words[1:])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !g.MayContain(k) {
			t.Fatal("round trip lost a key")
		}
	}
	if g.k != f.k || g.m != f.m || g.LoadFPR() != f.LoadFPR() {
		t.Fatal("round trip changed parameters")
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := newBloom(100, 8)
	for _, k := range insertedKeys(11, 1000) {
		if f.MayContain(k) {
			t.Fatal("empty bloom filter claimed membership")
		}
	}
}

func TestTinyFilters(t *testing.T) {
	f := newBloom(0, 8)
	f.Insert(1)
	if !f.MayContain(1) {
		t.Fatal("tiny filter lost its key")
	}
}

func TestMoreBitsFewerFalsePositives(t *testing.T) {
	const n = 1000
	keys := insertedKeys(21, n)
	set := make(map[uint64]bool, n)
	for _, k := range keys {
		set[k] = true
	}
	rates := make([]float64, 0, 3)
	for _, bits := range []float64{4, 8, 16} {
		f := newBloom(n, bits)
		for _, k := range keys {
			f.Insert(k)
		}
		rates = append(rates, measureFPR(f, set, 100000))
	}
	if !(rates[0] > rates[1] && rates[1] >= rates[2]) {
		t.Fatalf("FPR should fall with more bits: %v", rates)
	}
}
