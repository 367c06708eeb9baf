package part

import (
	"encoding/binary"
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

func TestRankConsistentWithRanges(t *testing.T) {
	check := func(nRaw uint16, pRaw uint8) bool {
		n := uint64(nRaw) + 1
		p := int(pRaw%32) + 1
		pt := Uniform(n, p)
		for v := uint64(0); v < n; v++ {
			r := pt.Rank(v)
			if !pt.Owns(r, v) {
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
		if !pt.Owns(pt.Rank(v), v) {
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

func TestByCostBalancesSkewedDegrees(t *testing.T) {
	// One hub with huge cost, many unit vertices: with CostDegree the hub's
	// PE should receive few other vertices.
	degrees := make([]int, 101)
	degrees[0] = 1000
	for i := 1; i <= 100; i++ {
		degrees[i] = 1
	}
	pt := ByCost(degrees, 4, CostDegree)
	if pt.Size(0) > 20 {
		t.Fatalf("hub PE got %d vertices, want few", pt.Size(0))
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += pt.Size(i)
	}
	if total != 101 {
		t.Fatalf("total %d, want 101", total)
	}
}

func TestByCostUniformDegrees(t *testing.T) {
	degrees := make([]int, 100)
	for i := range degrees {
		degrees[i] = 5
	}
	pt := ByCost(degrees, 4, CostDegree)
	for i := 0; i < 4; i++ {
		if pt.Size(i) != 25 {
			t.Fatalf("size(%d) = %d, want 25", i, pt.Size(i))
		}
	}
}

func TestByCostZeroTotal(t *testing.T) {
	degrees := make([]int, 10)
	pt := ByCost(degrees, 3, CostDegree)
	if pt.N() != 10 || pt.P() != 3 {
		t.Fatal("zero-cost fallback broken")
	}
}

func TestCostFunctions(t *testing.T) {
	if CostDegree(4) != 4 || CostDegreeSq(4) != 16 || CostWedges(4) != 6 || CostUnit(4) != 1 {
		t.Fatal("cost function values wrong")
	}
}

func TestByCostMonotoneBoundaries(t *testing.T) {
	check := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw%16) + 1
		degrees := make([]int, 200)
		s := seed
		for i := range degrees {
			s = s*6364136223846793005 + 1442695040888963407
			degrees[i] = int(s % 50)
		}
		pt := ByCost(degrees, p, CostWedges)
		prev := uint64(0)
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == 200
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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
	degrees := []int{90, 0, 0, 1, 2, 3, 40, 40, 0, 0, 5, 1}
	for _, p := range []int{1, 3, 7, 16} {
		orig := ByCost(degrees, p, CostWedges)
		rebuilt, err := New(starts(orig))
		if err != nil {
			t.Fatalf("p=%d: rebuilding from %v: %v", p, starts(orig), err)
		}
		if rebuilt.P() != p || rebuilt.N() != uint64(len(degrees)) {
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

// TestComputePlacementNeverDrops: the cost-balanced placement hands every
// vertex to exactly one PE, even when the prefix sum reaches the total long
// before the last vertex (a cost-free tail) and when PEs outnumber the
// vertices that carry any cost.
func TestComputePlacementNeverDrops(t *testing.T) {
	degrees := make([]int, 64)
	for i := 0; i < 16; i++ {
		degrees[i] = 100
	}
	for _, p := range []int{4, 16, 80} {
		for _, cost := range []CostFunc{CostDegree, CostDegreeSq, CostWedges} {
			pt := ByCost(degrees, p, cost)
			if pt.N() != uint64(len(degrees)) {
				t.Fatalf("p=%d: placement covers %d vertices, want %d", p, pt.N(), len(degrees))
			}
			total := 0
			for i := 0; i < p; i++ {
				total += pt.Size(i)
			}
			if total != len(degrees) {
				t.Fatalf("p=%d: ranges hold %d vertices, want %d", p, total, len(degrees))
			}
			for v := uint64(0); v < pt.N(); v++ {
				if r := pt.Rank(v); !pt.Owns(r, v) {
					t.Fatalf("p=%d: vertex %d dropped (Rank %d does not own it)", p, v, r)
				}
			}
		}
	}
}

// FuzzPlacement pins the cost-balanced placement's structural invariants on
// arbitrary degree sequences: p contiguous ranges in rank order that cover
// 0..n-1 exactly, a Rank that agrees with Owns on every vertex, boundaries
// New accepts back, and a result that is a pure function of its inputs.
func FuzzPlacement(f *testing.F) {
	mk := func(vals ...uint32) []byte {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(uint8(4), mk(7, 0, 500, 40, 9, 1, 800, 60, 12, 0, 300, 20))
	f.Add(uint8(2), mk(1, 0, 1, 1))
	f.Add(uint8(13), mk(100, 5, 1<<18, 1<<12, 101, 5, 1<<18, 1<<12, 102, 5, 9, 3))
	f.Add(uint8(1), []byte{})
	costs := []CostFunc{CostDegree, CostDegreeSq, CostWedges, CostUnit}
	f.Fuzz(func(t *testing.T, pRaw uint8, data []byte) {
		p := int(pRaw%16) + 1
		cost := costs[int(pRaw>>4)%len(costs)]
		var degrees []int
		for ; len(data) >= 4; data = data[4:] {
			degrees = append(degrees, int(binary.LittleEndian.Uint32(data)%(1<<16)))
		}
		pt := ByCost(degrees, p, cost)
		if pt.P() != p || pt.N() != uint64(len(degrees)) {
			t.Fatalf("placement over %d PEs and %d vertices, want %d and %d", pt.P(), pt.N(), p, len(degrees))
		}
		var prev uint64
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			if lo != prev || hi < lo {
				t.Fatalf("PE %d owns [%d,%d) after a range ending at %d", i, lo, hi, prev)
			}
			prev = hi
		}
		for v := uint64(0); v < pt.N(); v++ {
			if r := pt.Rank(v); r < 0 || r >= p || !pt.Owns(r, v) {
				t.Fatalf("vertex %d: Rank %d does not own it", v, r)
			}
		}
		if _, err := New(starts(pt)); err != nil {
			t.Fatalf("New rejects the placement's own boundaries %v: %v", starts(pt), err)
		}
		again := ByCost(degrees, p, cost)
		for i := 0; i < p; i++ {
			lo1, hi1 := pt.Range(i)
			lo2, hi2 := again.Range(i)
			if lo1 != lo2 || hi1 != hi2 {
				t.Fatalf("placement not deterministic at PE %d: [%d,%d) vs [%d,%d)", i, lo1, hi1, lo2, hi2)
			}
		}
	})
}
