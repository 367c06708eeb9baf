package part

import (
	"testing"
	"testing/quick"
)

func TestUniformCoversDisjointly(t *testing.T) {
	check := func(nRaw, pRaw uint16) bool {
		n := uint64(nRaw)
		p := int(pRaw%64) + 1
		pt := Uniform(n, p)
		if pt.P() != p || pt.N() != n {
			return false
		}
		var total uint64
		prevHi := uint64(0)
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			if lo != prevHi || hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUniformBalance(t *testing.T) {
	pt := Uniform(10, 3)
	sizes := []int{pt.Size(0), pt.Size(1), pt.Size(2)}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("sizes = %v, want [4 3 3]", sizes)
	}
}

// owns reports whether v lies in PE i's range.
func owns(pt *Partition, i int, v uint64) bool {
	first, last := pt.Range(i)
	return v >= first && v < last
}

func TestRankConsistentWithRanges(t *testing.T) {
	check := func(nRaw uint16, pRaw uint8) bool {
		n := uint64(nRaw) + 1
		p := int(pRaw%32) + 1
		pt := Uniform(n, p)
		for v := uint64(0); v < n; v++ {
			r := pt.Rank(v)
			if !owns(pt, r, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMoreRanksThanVertices(t *testing.T) {
	pt := Uniform(3, 8)
	total := 0
	for i := 0; i < 8; i++ {
		total += pt.Size(i)
	}
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	for v := uint64(0); v < 3; v++ {
		if !owns(pt, pt.Rank(v), v) {
			t.Fatalf("rank lookup broken for %d", v)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]uint64{0, 5, 3}); err == nil {
		t.Fatal("want error for non-monotone boundaries")
	}
	if _, err := New([]uint64{1, 5}); err == nil {
		t.Fatal("want error for nonzero first boundary")
	}
	if _, err := New([]uint64{0}); err == nil {
		t.Fatal("want error for single boundary")
	}
	pt, err := New([]uint64{0, 2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Size(1) != 0 {
		t.Fatal("empty range mishandled")
	}
	if pt.Rank(2) != 2 {
		t.Fatalf("vertex 2 should skip the empty PE, got %d", pt.Rank(2))
	}
}

// starts returns pt's range boundaries, the form a partition is broadcast in.
func starts(pt *Partition) []uint64 {
	s := []uint64{0}
	for i := 0; i < pt.P(); i++ {
		_, hi := pt.Range(i)
		s = append(s, hi)
	}
	return s
}

// TestNewPlacementValidation pins the broadcast-rebuild constructor: a
// placement rebuilt by New from another PE's boundaries owns every vertex
// exactly where the original does, empty ranges included, while malformed
// boundary lists are rejected.
func TestNewPlacementValidation(t *testing.T) {
	for _, bounds := range [][]uint64{
		{0, 12},
		{0, 1, 1, 6, 12},
		{0, 0, 0, 2, 2, 3, 9, 12},
		{0, 5, 5, 5, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11, 12, 12},
	} {
		p := len(bounds) - 1
		orig, err := New(bounds)
		if err != nil {
			t.Fatalf("p=%d: New(%v): %v", p, bounds, err)
		}
		rebuilt, err := New(starts(orig))
		if err != nil {
			t.Fatalf("p=%d: rebuilding from %v: %v", p, starts(orig), err)
		}
		if rebuilt.P() != p || rebuilt.N() != 12 {
			t.Fatalf("p=%d: rebuilt over %d PEs and %d vertices", p, rebuilt.P(), rebuilt.N())
		}
		for v := uint64(0); v < rebuilt.N(); v++ {
			if rebuilt.Rank(v) != orig.Rank(v) {
				t.Fatalf("p=%d: vertex %d on PE %d after rebuild, %d before", p, v, rebuilt.Rank(v), orig.Rank(v))
			}
		}
	}
	if _, err := New([]uint64{0, 7, 3}); err == nil {
		t.Fatal("accepted descending boundaries")
	}
	if _, err := New([]uint64{2, 3}); err == nil {
		t.Fatal("accepted a placement that skips vertex 0")
	}
}

// TestComputePlacementNeverDrops: a placement hands every vertex to exactly
// one PE, also when the ranges run out long before the last PE (an empty
// tail), when the first PEs own nothing, and when PEs outnumber vertices.
func TestComputePlacementNeverDrops(t *testing.T) {
	const n = 64
	for _, p := range []int{4, 16, 80} {
		shapes := map[string][]uint64{}
		// Empty tail: the first k = ⌈p/2⌉ ranges hold everything.
		head, tail := make([]uint64, p+1), make([]uint64, p+1)
		k := (p + 1) / 2
		for i := range head {
			head[i] = n * uint64(min(i, k)) / uint64(k)
			// Empty head: the last k ranges hold everything.
			tail[i] = n * uint64(max(0, i-(p-k))) / uint64(k)
		}
		shapes["empty tail"], shapes["empty head"] = head, tail
		for name, bounds := range shapes {
			pt, err := New(bounds)
			if err != nil {
				t.Fatalf("p=%d %s: New(%v): %v", p, name, bounds, err)
			}
			checkNeverDrops(t, pt, p, n)
		}
		checkNeverDrops(t, Uniform(n, p), p, n)
	}
}

// checkNeverDrops fails unless pt spans p PEs and n vertices with every
// vertex owned by exactly one PE, the one Rank names.
func checkNeverDrops(t *testing.T, pt *Partition, p int, n uint64) {
	t.Helper()
	if pt.P() != p || pt.N() != n {
		t.Fatalf("placement over %d PEs and %d vertices, want %d and %d", pt.P(), pt.N(), p, n)
	}
	total := 0
	for i := 0; i < p; i++ {
		total += pt.Size(i)
	}
	if total != int(n) {
		t.Fatalf("p=%d: ranges hold %d vertices, want %d (%v)", p, total, n, starts(pt))
	}
	for v := uint64(0); v < n; v++ {
		owners := 0
		for i := 0; i < p; i++ {
			if owns(pt, i, v) {
				owners++
			}
		}
		if r := pt.Rank(v); owners != 1 || !owns(pt, r, v) {
			t.Fatalf("p=%d: vertex %d has %d owners, Rank %d (%v)", p, v, owners, r, starts(pt))
		}
	}
}

// FuzzPlacement pins New on arbitrary boundary lists: a list is accepted iff
// it has at least two entries, starts at 0 and is monotone, and an accepted
// list yields contiguous ranges in rank order that tile 0..n-1 exactly and a
// Rank that agrees with Owns on every vertex. Each byte is one value, at most
// 256 of them; with gaps set, the list is their prefix sums (so monotone
// lists are common), otherwise the values are the boundaries.
func FuzzPlacement(f *testing.F) {
	f.Add(true, []byte{0, 7, 0, 200, 40, 9, 1, 255, 60, 12, 0, 30, 20})
	f.Add(false, []byte{0, 1, 1, 4})
	f.Add(false, []byte{0, 100, 5, 90})
	f.Add(true, []byte{})
	f.Fuzz(func(t *testing.T, gaps bool, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		var bounds []uint64
		for _, b := range data {
			v := uint64(b)
			if gaps && len(bounds) > 0 {
				v += bounds[len(bounds)-1]
			}
			bounds = append(bounds, v)
		}
		valid := len(bounds) >= 2 && bounds[0] == 0
		for i := 1; valid && i < len(bounds); i++ {
			valid = bounds[i] >= bounds[i-1]
		}
		pt, err := New(bounds)
		if (err == nil) != valid {
			t.Fatalf("New(%v): err = %v, want accepted = %v", bounds, err, valid)
		}
		if !valid {
			return
		}
		p := len(bounds) - 1
		if pt.P() != p || pt.N() != bounds[p] {
			t.Fatalf("placement over %d PEs and %d vertices, want %d and %d", pt.P(), pt.N(), p, bounds[p])
		}
		var prev uint64
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			if lo != prev || hi < lo || pt.Size(i) != int(hi-lo) {
				t.Fatalf("PE %d owns [%d,%d) (size %d) after a range ending at %d", i, lo, hi, pt.Size(i), prev)
			}
			prev = hi
		}
		if prev != pt.N() {
			t.Fatalf("ranges end at %d, want %d", prev, pt.N())
		}
		for v := uint64(0); v < pt.N(); v++ {
			if r := pt.Rank(v); r < 0 || r >= p || !owns(pt, r, v) {
				t.Fatalf("vertex %d: Rank %d does not own it", v, r)
			}
		}
	})
}
