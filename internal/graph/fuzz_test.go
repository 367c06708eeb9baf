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
// deduplicated vertex slices, through every intersection kernel; all must
// agree with the CountMerge oracle, in both argument orders.
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
	})
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
