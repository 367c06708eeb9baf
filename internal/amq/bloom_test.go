package amq

import (
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

// filter is what the tests probe: Bloom and Blocked alike.
type filter interface {
	Insert(key uint64)
	MayContain(key uint64) bool
	FPR(n int) float64
}

func newBloom(n int, bitsPerKey float64) *Bloom {
	_, f := AppendBloom(nil, n, bitsPerKey)
	return &f
}

func newBlocked(n int, bitsPerKey float64) *Blocked {
	_, f := AppendBlocked(nil, n, bitsPerKey)
	return &f
}

func testNoFalseNegatives(t *testing.T, mk func(n int) filter) {
	t.Helper()
	check := func(seed uint64) bool {
		keys := insertedKeys(seed, 200)
		f := mk(len(keys))
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

func TestBloomNoFalseNegatives(t *testing.T) {
	testNoFalseNegatives(t, func(n int) filter { return newBloom(n, 8) })
}

func TestBlockedNoFalseNegatives(t *testing.T) {
	testNoFalseNegatives(t, func(n int) filter { return newBlocked(n, 8) })
}

func measureFPR(f filter, inserted map[uint64]bool, probes int) float64 {
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
	predicted := f.FPR(n)
	// 10 bits/key ⇒ predicted ≈ 0.8%. Allow generous slack, but both
	// directions must be sane and the prediction must be in the ballpark.
	if measured > 3*predicted+0.005 {
		t.Fatalf("measured FPR %.4f far above predicted %.4f", measured, predicted)
	}
	if predicted > 0.05 {
		t.Fatalf("predicted FPR %.4f unexpectedly high", predicted)
	}
}

func TestBlockedFPRReasonable(t *testing.T) {
	const n = 2000
	keys := insertedKeys(7, n)
	set := make(map[uint64]bool, n)
	f := newBlocked(n, 10)
	for _, k := range keys {
		f.Insert(k)
		set[k] = true
	}
	measured := measureFPR(f, set, 200000)
	predicted := f.FPR(n)
	if measured > 3*predicted+0.01 {
		t.Fatalf("measured FPR %.4f far above predicted %.4f", measured, predicted)
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
	if g.FPR(100) != f.FPR(100) || g.LoadFPR() != f.LoadFPR() {
		t.Fatal("round trip changed parameters")
	}
}

func TestBlockedWordsRoundTrip(t *testing.T) {
	words, f := AppendBlocked(nil, 100, 8)
	keys := insertedKeys(6, 100)
	for _, k := range keys {
		f.Insert(k)
	}
	g, err := ViewBlocked(words)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !g.MayContain(k) {
			t.Fatal("round trip lost a key")
		}
	}
	if g.FPR(100) != f.FPR(100) || g.LoadFPR() != f.LoadFPR() {
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
	b := newBlocked(100, 8)
	for _, k := range insertedKeys(12, 1000) {
		if b.MayContain(k) {
			t.Fatal("empty blocked filter claimed membership")
		}
	}
}

func TestTinyFilters(t *testing.T) {
	f := newBloom(0, 8)
	f.Insert(1)
	if !f.MayContain(1) {
		t.Fatal("tiny filter lost its key")
	}
	b := newBlocked(0, 8)
	b.Insert(1)
	if !b.MayContain(1) {
		t.Fatal("tiny blocked filter lost its key")
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
