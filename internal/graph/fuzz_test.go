package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// Native fuzz targets for the parsing paths. Under plain `go test` they run
// their seed corpus; `go test -fuzz=FuzzX` explores further.

func FuzzReadEdgeListText(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n% comment\n3 4 extra\n")
	f.Add("")
	f.Add("999999999999 1\n")
	f.Add("a b\n")
	f.Add("5\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Cap vertex IDs so malicious inputs cannot allocate unboundedly.
		for _, line := range strings.Split(input, "\n") {
			fields := strings.Fields(line)
			if len(fields) >= 1 && len(fields[0]) > 6 {
				t.Skip("IDs too large for the fuzz harness")
			}
			if len(fields) >= 2 && len(fields[1]) > 6 {
				t.Skip("IDs too large for the fuzz harness")
			}
		}
		g, err := ReadEdgeListText(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		// Whatever parsed must round-trip through the writer.
		var buf bytes.Buffer
		if err := WriteEdgeListText(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeListText(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed m: %d vs %d", g2.NumEdges(), g.NumEdges())
		}
	})
}

func FuzzBinaryGraphFormat(f *testing.F) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reject absurd headers cheaply to keep the harness fast.
		if len(data) > 1<<16 {
			t.Skip()
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NumVertices() > 1<<20 {
			t.Skip() // header said huge n; FromEdges already validated edges
		}
		// A successfully parsed graph must be internally consistent.
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(Vertex(v)) {
				if int(u) >= g.NumVertices() {
					t.Fatalf("neighbor %d out of range", u)
				}
			}
		}
	})
}

// FuzzIntersectKernels feeds arbitrary byte strings, turned into sorted
// deduplicated index slices, through every intersection kernel in both
// instantiations — 8-byte global IDs and 4-byte row indices — through the
// bare marks (a Mark of row indices, a two-bit SplitMark of IDs), and through
// the stamped wedge kernel, with either slice as the stamped list and the
// partner with and without a hub bitmap; all must agree with the CountMerge
// oracle over the 8-byte lists, in both argument orders.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 255}, []byte{1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9}, []byte{7})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := sortedFromBytes[Vertex](rawA), sortedFromBytes[Vertex](rawB)
		want := CountMerge(a, b)
		domain := checkKernels(t, a, b, want)
		checkSplitMark(t, a, b, want, domain)
		ra, rb := sortedFromBytes[uint32](rawA), sortedFromBytes[uint32](rawB)
		checkKernels(t, ra, rb, want)
		checkMark(t, ra, rb, want, domain)
		// Stamped kernel: both role assignments (so the stamped list is the
		// shorter side in one of them and the longer in the other, empty lists
		// included), partner with and without a hub bitmap.
		for _, hub := range []bool{false, true} {
			checkStamped(t, ra, rb, domain, hub)
			checkStamped(t, rb, ra, domain, hub)
		}
	})
}

// checkKernels runs every pairwise and set kernel of one instantiation on
// a ∩ b against want, and returns the smallest domain holding both lists.
func checkKernels[T Index](t *testing.T, a, b []T, want uint64) int {
	t.Helper()
	if got := CountMerge(a, b); got != want {
		t.Fatalf("merge = %d, want %d (a=%v b=%v)", got, want, a, b)
	}
	if got := CountGallop(a, b); got != want {
		t.Fatalf("gallop = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	if got := CountIntersect(a, b); got != want {
		t.Fatalf("adaptive = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	if got := CountIntersect(b, a); got != want {
		t.Fatalf("adaptive reversed = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	var each uint64
	ForEachCommon(a, b, func(T) { each++ })
	if each != want {
		t.Fatalf("ForEachCommon = %d, merge = %d", each, want)
	}
	// Bitmap kernel: index b, probe with a (domain = max value + 1).
	domain := 1
	for _, l := range [][]T{a, b} {
		if len(l) > 0 {
			domain = max(domain, int(l[len(l)-1])+1)
		}
	}
	bs := NewBitset(domain)
	SetList(bs, b)
	if got := CountList(bs, a); got != want {
		t.Fatalf("bitmap = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	var bits uint64
	ForEachCommonList(bs, a, func(T) { bits++ })
	if bits != want {
		t.Fatalf("bitmap ForEach = %d, merge = %d", bits, want)
	}
	// Bitset ∩ Bitset via AND + popcount.
	ba := NewBitset(domain)
	SetList(ba, a)
	if got := ba.CountAnd(bs); got != want {
		t.Fatalf("bitmap AND = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	return domain
}

// checkMark probes a bare Mark (row indices) stamped with b with a, and
// leaves it all-zero.
func checkMark(t *testing.T, a, b []uint32, want uint64, domain int) {
	t.Helper()
	m := NewMark(domain)
	m.Stamp(b)
	if got := m.CountList(a); got != want {
		t.Fatalf("mark = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	var marked uint64
	m.ForEachCommonList(a, func(uint32) { marked++ })
	if marked != want {
		t.Fatalf("mark ForEach = %d, merge = %d", marked, want)
	}
	m.Unstamp()
	if got := m.bits.CountAnd(m.bits); got != 0 {
		t.Fatalf("mark holds %d bits after Unstamp", got)
	}
}

// checkSplitMark stamps b, split into its even- and odd-position entries,
// into a two-bit SplitMark over global IDs and probes it with a: each bit
// must count its own half, and Unstamp must leave the mark all-zero.
func checkSplitMark(t *testing.T, a, b []Vertex, want uint64, domain int) {
	t.Helper()
	var even, odd []Vertex
	for i, x := range b {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	m := NewSplitMark(domain)
	m.Stamp(even, odd)
	inA, inB := m.CountList(a)
	if wantA, wantB := CountMerge(a, even), CountMerge(a, odd); inA != wantA || inB != wantB || inA+inB != want {
		t.Fatalf("split mark = (%d, %d), merge = (%d, %d) of %d (a=%v b=%v)", inA, inB, wantA, wantB, want, a, b)
	}
	m.Unstamp()
	if !m.IsClear() {
		t.Fatalf("split mark holds bits after Unstamp (a=%v b=%v)", a, b)
	}
}

// checkStamped runs all three shapes of the stamped wedge kernel for
// list ∩ A(0), where A(0) = partner is the only non-empty row of a synthetic
// oriented view over [0, domain), against the merge oracle: count, split at
// 0, at Rows, and at a value inside the partner, and for-each (ascending).
// The mark must be all-zero again after every Unstamp.
func checkStamped(t *testing.T, list, partner []uint32, domain int, hub bool) {
	t.Helper()
	off := make([]int64, domain+1)
	for r := 1; r <= domain; r++ {
		off[r] = int64(len(partner))
	}
	o := &LocalOriented{L: &LocalGraph{nLocal: domain, gid: make([]Vertex, domain)}, off: off, rowOut: partner}
	if hub {
		bs := NewBitset(domain)
		SetList(bs, partner)
		o.hubs = hubIndex{stride: BitsetWords(domain), perRow: make([]Bitset, domain), hubs: 1}
		o.hubs.perRow[0] = bs
	}
	splits := []uint32{0, uint32(domain)}
	if len(partner) > 0 {
		splits = append(splits, partner[len(partner)/2])
	}
	m := o.NewRowMark()
	clear := func() {
		t.Helper()
		m.Unstamp()
		for i, w := range m.bits {
			if w != 0 {
				t.Fatalf("mark word %d = %#x after Unstamp (list=%v)", i, w, list)
			}
		}
	}
	want := CountMerge(list, partner)
	m.Stamp(list)
	set, probe := o.Probe(m, 0)
	if len(list) > 0 && len(partner) > 0 {
		// The hub route is taken exactly when it scans the shorter side.
		if swapped := &probe[0] == &list[0]; swapped != (hub && len(list) < len(partner)) {
			t.Fatalf("Probe swapped=%v with hub=%v |list|=%d |partner|=%d", swapped, hub, len(list), len(partner))
		}
	}
	if got := CountList(set, probe); got != want {
		t.Fatalf("stamped count = %d, merge = %d (hub=%v list=%v partner=%v)", got, want, hub, list, partner)
	}
	clear()
	for _, split := range splits {
		var wantBelow uint64
		ForEachCommon(list, partner, func(w uint32) {
			if w < split {
				wantBelow++
			}
		})
		m.Stamp(list)
		set, probe = o.Probe(m, 0)
		below, rest := CountListSplit(set, probe, split)
		if below != wantBelow || below+rest != want {
			t.Fatalf("stamped split at %d = %d+%d, want %d+%d (hub=%v list=%v partner=%v)",
				split, below, rest, wantBelow, want-wantBelow, hub, list, partner)
		}
		clear()
	}
	var common, got []uint32
	ForEachCommon(list, partner, func(w uint32) { common = append(common, w) })
	m.Stamp(list)
	set, probe = o.Probe(m, 0)
	ForEachCommonList(set, probe, func(w uint32) { got = append(got, w) })
	clear()
	if !slices.Equal(got, common) {
		t.Fatalf("stamped for-each = %v, merge = %v (hub=%v)", got, common, hub)
	}
}

// sortedFromBytes maps fuzz bytes to a strictly ascending index slice
// (cumulative gaps, so adjacent duplicates become distinct values).
func sortedFromBytes[T Index](raw []byte) []T {
	out := make([]T, 0, len(raw))
	cur := T(0)
	for _, b := range raw {
		cur += T(b) + 1
		out = append(out, cur-1)
	}
	return out
}
