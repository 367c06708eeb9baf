package graph

import (
	"bytes"
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
// deduplicated vertex slices, through every intersection kernel — the
// stamped wedge kernel included, with either slice as the stamped list and
// the partner with and without a hub bitmap; all must agree with the
// CountMerge oracle, in both argument orders.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{255, 0, 255}, []byte{1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9}, []byte{7})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := sortedFromBytes(rawA)
		b := sortedFromBytes(rawB)
		want := CountMerge(a, b)
		if got := CountMergeBranchless(a, b); got != want {
			t.Fatalf("branchless = %d, merge = %d (a=%v b=%v)", got, want, a, b)
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
		ForEachCommon(a, b, func(Vertex) { each++ })
		if each != want {
			t.Fatalf("ForEachCommon = %d, merge = %d", each, want)
		}
		// Bitmap kernel: index b, probe with a (domain = max value + 1).
		var domain Vertex = 1
		for _, x := range b {
			if x >= domain {
				domain = x + 1
			}
		}
		for _, x := range a {
			if x >= domain {
				domain = x + 1
			}
		}
		bs := NewBitset(int(domain))
		bs.SetList(b)
		if got := bs.CountList(a); got != want {
			t.Fatalf("bitmap = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		var bits uint64
		bs.ForEachCommonList(a, func(Vertex) { bits++ })
		if bits != want {
			t.Fatalf("bitmap ForEach = %d, merge = %d", bits, want)
		}
		// Bitset ∩ Bitset via AND + popcount.
		ba := NewBitset(int(domain))
		ba.SetList(a)
		if got := ba.CountAnd(bs); got != want {
			t.Fatalf("bitmap AND = %d, merge = %d (a=%v b=%v)", got, want, a, b)
		}
		var and uint64
		ba.ForEachAnd(bs, func(Vertex) { and++ })
		if and != want {
			t.Fatalf("bitmap ForEachAnd = %d, merge = %d", and, want)
		}
		// Stamped kernel: both role assignments (so the stamped list is the
		// shorter side in one of them and the longer in the other, empty lists
		// included), partner with and without a hub bitmap.
		for _, hub := range []bool{false, true} {
			checkStamped(t, a, b, int(domain), hub)
			checkStamped(t, b, a, int(domain), hub)
		}
	})
}

// checkStamped runs all three shapes of the stamped wedge kernel for
// list ∩ A(0), where A(0) = partner is the only non-empty row of a synthetic
// oriented view over [0, domain), against the merge oracle: count, split at
// 0, at Rows, and at a value inside the partner, and for-each (ascending).
// The mark must be all-zero again after every Unstamp.
func checkStamped(t *testing.T, list, partner []Vertex, domain int, hub bool) {
	t.Helper()
	off := make([]int64, domain+1)
	for r := 1; r <= domain; r++ {
		off[r] = int64(len(partner))
	}
	o := &LocalOriented{L: &LocalGraph{nLocal: domain}, off: off, rowOut: partner}
	if hub {
		bs := NewBitset(domain)
		bs.SetList(partner)
		o.hubs = hubIndex{stride: BitsetWords(domain), perRow: make([]Bitset, domain), hubs: 1}
		o.hubs.perRow[0] = bs
	}
	splits := []Vertex{0, Vertex(domain)}
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
	if got := set.CountList(probe); got != want {
		t.Fatalf("stamped count = %d, merge = %d (hub=%v list=%v partner=%v)", got, want, hub, list, partner)
	}
	clear()
	for _, split := range splits {
		var wantBelow uint64
		ForEachCommon(list, partner, func(w Vertex) {
			if w < split {
				wantBelow++
			}
		})
		m.Stamp(list)
		set, probe = o.Probe(m, 0)
		below, rest := set.CountListSplit(probe, split)
		if below != wantBelow || below+rest != want {
			t.Fatalf("stamped split at %d = %d+%d, want %d+%d (hub=%v list=%v partner=%v)",
				split, below, rest, wantBelow, want-wantBelow, hub, list, partner)
		}
		clear()
	}
	var common, got []Vertex
	ForEachCommon(list, partner, func(w Vertex) { common = append(common, w) })
	m.Stamp(list)
	set, probe = o.Probe(m, 0)
	set.ForEachCommonList(probe, func(w Vertex) { got = append(got, w) })
	clear()
	if len(got) != len(common) {
		t.Fatalf("stamped for-each = %v, merge = %v (hub=%v)", got, common, hub)
	}
	for i := range got {
		if got[i] != common[i] {
			t.Fatalf("stamped for-each = %v, merge = %v (hub=%v)", got, common, hub)
		}
	}
}

// sortedFromBytes maps fuzz bytes to a strictly ascending vertex slice
// (cumulative gaps, so adjacent duplicates become distinct values).
func sortedFromBytes(raw []byte) []Vertex {
	out := make([]Vertex, 0, len(raw))
	cur := Vertex(0)
	for _, b := range raw {
		cur += Vertex(b) + 1
		out = append(out, cur-1)
	}
	return out
}

func FuzzVarint(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(127))
	f.Add(uint64(128))
	f.Add(uint64(1) << 63)
	f.Fuzz(func(t *testing.T, x uint64) {
		buf := appendUvarint(nil, x)
		nc := neighborCursor{buf: buf}
		got, ok := nc.next()
		if !ok || got != x {
			t.Fatalf("varint round trip: %d -> %d (%v)", x, got, ok)
		}
		if _, ok := nc.next(); ok {
			t.Fatal("cursor should be exhausted")
		}
	})
}
