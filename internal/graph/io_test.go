package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	g := randomGraph(3, 50, 300)
	var buf bytes.Buffer
	if err := WriteEdgeListText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("m = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(Vertex(v)) > 0 && !slices.Equal(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Fatalf("neighborhood of %d differs", v)
		}
	}
}

func TestReadEdgeListTextCommentsAndDirected(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 0
2 3 extra-ignored
`
	g, err := ReadEdgeListText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
}

func TestReadEdgeListTextErrors(t *testing.T) {
	if _, err := ReadEdgeListText(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for one field")
	}
	if _, err := ReadEdgeListText(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric field")
	}
	g, err := ReadEdgeListText(strings.NewReader("\n"))
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty input should give empty graph, got %v %v", g, err)
	}
	// A line past the 1 MiB limit, here a comment, is an error naming the
	// line and the limit, not the scanner's bare "token too long".
	_, err = ReadEdgeListText(strings.NewReader(overlongCommentInput()))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "1 MiB") {
		t.Fatalf("2 MiB comment line: err %v, want one naming line 2 and the 1 MiB limit", err)
	}
}

// overlongCommentInput is an edge list whose second line, a comment, is
// 2 MiB long: past ReadEdgeListText's line limit.
func overlongCommentInput() string {
	return "0 1\n#" + strings.Repeat("x", 2<<20) + "\n1 2\n"
}

// TestReadEdgeListTextHostileIDs: a vertex ID whose n = ID + 1 wraps, does
// not fit in an int, or is far larger than the edge lines can back is an
// error naming its line, returned before anything is sized by n.
func TestReadEdgeListTextHostileIDs(t *testing.T) {
	for _, tc := range []struct{ name, in, line string }{
		{"ID = 2^64-1", "0 18446744073709551615\n", "line 1"},
		{"ID = 2^63-1", "3 9223372036854775807\n", "line 1"},
		{"ID = 10^11", "# comment\n0 1\n0 99999999999\n", "line 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ReadEdgeListText(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.line) {
				t.Fatalf("%q: graph %v, err %v; want an error naming %s", tc.in, g, err, tc.line)
			}
		})
	}
	// The bound counts edge lines: n = 2m + 2^16 is accepted, one more is not.
	if g, err := ReadEdgeListText(strings.NewReader("0 65539\n1 2\n")); err != nil || g.NumVertices() != 65540 {
		t.Fatalf("n at the bound: graph %v, err %v", g, err)
	}
	if _, err := ReadEdgeListText(strings.NewReader("0 65540\n1 2\n")); err == nil {
		t.Fatal("n one past the bound was accepted")
	}
}
