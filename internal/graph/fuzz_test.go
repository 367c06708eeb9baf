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
	f.Add("0 18446744073709551615\n")
	f.Add("3 9223372036854775807\n")
	f.Add("0 99999999999\n")
	f.Add(overlongCommentInput())
	f.Fuzz(func(t *testing.T, input string) {
		// The reader bounds n by the edge lines, so no input, however large
		// its IDs, makes it allocate out of proportion to its own length.
		g, err := ReadEdgeListText(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; crashing is not
		}
		if uint64(g.NumVertices()) > 2*uint64(strings.Count(input, "\n")+1)+1<<16 {
			t.Fatalf("n=%d from a %d-byte input", g.NumVertices(), len(input))
		}
		// Whatever parsed must round-trip through the writer, unless dropping
		// duplicates and self-loops left too few edges to back its max ID.
		if uint64(g.NumVertices()) > 2*uint64(g.NumEdges())+1<<16 {
			return
		}
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

// FuzzIntersectKernels feeds arbitrary byte strings, turned into sorted
// deduplicated index slices, through every intersection kernel in both
// instantiations — 8-byte global IDs and 4-byte row indices — through the
// bare marks (a Mark of row indices, a byte SplitMark of IDs), and through
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
	bs := make(Bitset, BitsetWords(domain))
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
	ba := make(Bitset, BitsetWords(domain))
	SetList(ba, a)
	if got := ba.CountAnd(bs); got != want {
		t.Fatalf("bitmap AND = %d, merge = %d (a=%v b=%v)", got, want, a, b)
	}
	return domain
}

// checkMark probes a bare Mark (row indices) stamped with b with a, in the
// count, split and for-each shapes, and leaves it all-zero. b is stamped a
// second time with every entry repeated: the mark holds membership, not a
// multiplicity, so the count must not change and Unstamp must still clear it.
func checkMark(t *testing.T, a, b []uint32, want uint64, domain int) {
	t.Helper()
	m := NewMark(domain)
	doubled := make([]uint32, 0, 2*len(b))
	for _, x := range b {
		doubled = append(doubled, x, x)
	}
	splits := []uint32{0, uint32(domain)}
	if len(a) > 0 {
		splits = append(splits, a[len(a)/2])
	}
	for _, list := range [][]uint32{b, doubled} {
		m.Stamp(list)
		if got := m.CountList(a); got != want {
			t.Fatalf("mark = %d, merge = %d (a=%v b=%v)", got, want, a, list)
		}
		var marked []uint32
		m.ForEachCommonList(a, func(x uint32) { marked = append(marked, x) })
		var common []uint32
		ForEachCommon(a, b, func(x uint32) { common = append(common, x) })
		if !slices.Equal(marked, common) {
			t.Fatalf("mark ForEach = %v, merge = %v", marked, common)
		}
		for _, split := range splits {
			var wantBelow uint64
			for _, x := range common {
				if x < split {
					wantBelow++
				}
			}
			if below, rest := m.CountListSplit(a, split); below != wantBelow || below+rest != want {
				t.Fatalf("mark split at %d = %d+%d, want %d+%d (a=%v b=%v)",
					split, below, rest, wantBelow, want-wantBelow, a, list)
			}
		}
		m.Unstamp()
		if !m.IsClear() {
			t.Fatalf("mark holds entries after Unstamp (b=%v)", list)
		}
	}
}

// checkSplitMark stamps b, split into its even- and odd-position entries,
// into a SplitMark over global IDs and probes it with a: each half must hold
// its own byte value (1 even, 2 odd) and count its own half, Holds must name
// exactly b's entries, a second Stamp while held must panic, and Unstamp
// must leave every byte zero — also after lists that share an ID (b's first
// entry in both), which Stamp must report.
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
	if len(m.on) != domain || !m.IsClear() {
		t.Fatalf("NewSplitMark(%d): %d bytes, clear=%v", domain, len(m.on), m.IsClear())
	}
	if !m.Stamp(even, odd) {
		t.Fatalf("Stamp reports disjoint halves as meeting (b=%v)", b)
	}
	if m.IsClear() != (len(b) == 0) {
		t.Fatalf("stamped split mark reads clear=%v with %d entries (b=%v)", m.IsClear(), len(b), b)
	}
	for i, x := range b {
		if want := byte(1 + i%2); m.on[x] != want {
			t.Fatalf("split mark byte of %d = %d, want %d (b=%v)", x, m.on[x], want, b)
		}
	}
	for _, x := range a {
		if m.Holds(x) != slices.Contains(b, x) {
			t.Fatalf("split mark Holds(%d) = %v (b=%v)", x, m.Holds(x), b)
		}
	}
	inA, inB := m.CountList(a)
	if wantA, wantB := CountMerge(a, even), CountMerge(a, odd); inA != wantA || inB != wantB || inA+inB != want {
		t.Fatalf("split mark = (%d, %d), merge = (%d, %d) of %d (a=%v b=%v)", inA, inB, wantA, wantB, want, a, b)
	}
	func() {
		defer func() {
			if r := recover(); r != markHeld {
				t.Fatalf("Stamp on a held split mark recovered %v, want %q", r, markHeld)
			}
		}()
		m.Stamp(odd, even)
	}()
	m.Unstamp()
	if !m.IsClear() {
		t.Fatalf("split mark holds bytes after Unstamp (a=%v b=%v)", a, b)
	}
	if len(b) > 0 {
		if m.Stamp(b[:1], b) {
			t.Fatalf("Stamp reports lists sharing %d as disjoint (b=%v)", b[0], b)
		}
		m.Unstamp()
		if !m.IsClear() {
			t.Fatalf("split mark holds bytes after Unstamp of lists sharing %d (b=%v)", b[0], b)
		}
	}
}

// checkStamped runs the stamped wedge kernel for list ∩ A(0), where
// A(0) = partner is the only non-empty row of a synthetic oriented view over
// [0, domain), against the merge oracle, in the count and for-each
// (ascending) shapes. Probe's contract: the hub arm — the partner's bitmap,
// probed with the stamped list — exactly when the partner has a hub and the
// stamped list is the shorter side, otherwise no hub and A(0) to probe
// against the mark. The mark must be all-zero again after every Unstamp.
func checkStamped(t *testing.T, list, partner []uint32, domain int, withHub bool) {
	t.Helper()
	off := make([]int64, domain+1)
	for r := 1; r <= domain; r++ {
		off[r] = int64(len(partner))
	}
	o := &LocalOriented{L: &LocalGraph{nLocal: domain, gid: make([]Vertex, domain)}, off: off, rowOut: partner}
	if withHub {
		bs := make(Bitset, BitsetWords(domain))
		SetList(bs, partner)
		o.hubs = hubIndex{stride: BitsetWords(domain), perRow: make([]Bitset, domain), hubs: 1}
		o.hubs.perRow[0] = bs
	}
	m := o.NewRowMark()
	m.Stamp(list)
	hub, probe := o.Probe(m, 0)
	if wantHub := withHub && len(list) < len(partner); (hub != nil) != wantHub {
		t.Fatalf("Probe took the hub arm=%v with hub=%v |list|=%d |partner|=%d", hub != nil, withHub, len(list), len(partner))
	}
	if hub != nil && (len(probe) != len(list) || len(list) > 0 && &probe[0] != &list[0]) || hub == nil && !slices.Equal(probe, partner) {
		t.Fatalf("Probe returned %v to test (hub arm=%v list=%v partner=%v)", probe, hub != nil, list, partner)
	}
	var got uint64
	var each []uint32
	if hub != nil {
		got = CountList(hub, probe)
		ForEachCommonList(hub, probe, func(w uint32) { each = append(each, w) })
	} else {
		got = m.CountList(probe)
		m.ForEachCommonList(probe, func(w uint32) { each = append(each, w) })
	}
	m.Unstamp()
	if !m.IsClear() {
		t.Fatalf("mark holds entries after Unstamp (list=%v)", list)
	}
	if want := CountMerge(list, partner); got != want {
		t.Fatalf("stamped count = %d, merge = %d (hub=%v list=%v partner=%v)", got, want, withHub, list, partner)
	}
	var common []uint32
	ForEachCommon(list, partner, func(w uint32) { common = append(common, w) })
	if !slices.Equal(each, common) {
		t.Fatalf("stamped for-each = %v, merge = %v (hub=%v)", each, common, withHub)
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
