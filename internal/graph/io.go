package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Text edge-list I/O ("u v" per line, '#'/'%' comments), so instances can be
// saved once and re-used across experiment runs.

// WriteEdgeListText writes one "u v" line per undirected edge.
func WriteEdgeListText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.ForEachEdge(func(u, v Vertex) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// maxTextLine is the longest line ReadEdgeListText reads: 1 MiB.
const maxTextLine = 1 << 20

// ReadEdgeListText parses a whitespace-separated edge list. IDs are not
// compacted: the graph has n = max ID + 1 vertices, and unnamed IDs are
// isolated vertices. Directed inputs are interpreted as undirected, as the
// paper does. Before anything is sized by n, an ID that does not fit in an
// int, or a max ID with n > 2·(edge lines) + 2^16, is an error naming its
// line, so a short hostile file cannot ask for a huge allocation. A line
// longer than maxTextLine, a comment included, is an error naming it.
func ReadEdgeListText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxTextLine), maxTextLine)
	var raw []Edge
	maxID := Vertex(0)
	line, maxLine := 0, 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' || s[0] == '%' {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least two fields, got %q", line, s)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if m := max(u, v); m >= math.MaxInt {
			return nil, fmt.Errorf("graph: line %d: vertex ID %d is too large: n = ID + 1 must fit in an int", line, m)
		} else if m > maxID {
			maxID, maxLine = m, line
		}
		raw = append(raw, Edge{u, v})
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("graph: line %d: longer than the %d-byte (1 MiB) line limit", line+1, maxTextLine)
	} else if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return FromEdges(0, nil), nil
	}
	if maxID+1 > 2*uint64(len(raw))+1<<16 {
		return nil, fmt.Errorf("graph: line %d: vertex ID %d implies n=%d for only %d edges",
			maxLine, maxID, maxID+1, len(raw))
	}
	return FromEdges(int(maxID)+1, raw), nil
}
