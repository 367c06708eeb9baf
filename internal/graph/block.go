package graph

import (
	"fmt"
	"slices"

	"repro/internal/part"
)

// 2D block views of the oriented adjacency matrix. Block is the per-PE CSR
// over band-relative indices that the TK2D counting rounds broadcast and
// intersect; BuildBlockCSR cuts it out of the global CSR, oriented by the
// degree order ≺ like every 1D counter (ScatterEdges2D + BuildBlock2D, the
// edge-list front end of the cmd/bench build probe, cut the ID-oriented
// matrix). Rows are row-band-relative (rel(u) = u div r) and entries
// column-band-relative (rel(v) = v div c), which keeps the wire varints and
// the counting kernel's mark r× resp. c× denser than global IDs. Entries are
// 4 bytes in memory (a band holds at most MaxRows vertices) and 64-bit words
// on the wire, narrowed only after DecodeBlockInto has checked them against
// the entry domain. On
// rectangular grids each counting round ships a stripe of a block — the
// entries in one middle-vertex band mod L = lcm(r, c) — extracted and
// translated to round space by StripeInto.

// ScatterEdges2D deals edges into the block grid: each non-loop edge {u,v}
// is canon-oriented (U < V) and lands in exactly one slice, its block
// owner's. Self-loops are dropped (they belong to no block). Two-pass
// counting layout like ScatterEdgesPar: per-worker owner histograms, prefix
// sums, direct placement; the output is byte-identical for every thread
// count.
func ScatterEdges2D(g2 *part.Grid2D, edges []Edge, threads int) [][]Edge {
	p := g2.P()
	out := make([][]Edge, p)
	if len(edges) == 0 {
		return out
	}
	w := workersFor(threads, len(edges), parallelChunk)
	owners := make([]int32, len(edges))
	cnt := make([]int64, w*p)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		c := cnt[worker*p : (worker+1)*p]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				owners[i] = -1
				continue
			}
			o := int32(g2.Owner(e.U, e.V))
			owners[i] = o
			c[o]++
		}
	})
	pos := make([]int64, w*p)
	for pe := 0; pe < p; pe++ {
		total := int64(0)
		for worker := 0; worker < w; worker++ {
			pos[worker*p+pe] = total
			total += cnt[worker*p+pe]
		}
		if total > 0 {
			out[pe] = make([]Edge, total)
		}
	}
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		cur := pos[worker*p : (worker+1)*p]
		for i := lo; i < hi; i++ {
			o := owners[i]
			if o < 0 {
				continue
			}
			out[o][cur[o]] = edges[i].Canon()
			cur[o]++
		}
	})
	return out
}

// Block is one block of the oriented adjacency matrix in CSR form: row i
// (relative index within band bandRow) lists the relative indices, within
// band bandCol, of the heads v of the oriented edges (u, v) with
// rel(u) = i — ascending, deduplicated, each below domain (the entry
// band's size). A transposed block (built by Transpose, broadcast down grid
// columns) has the same shape with the roles swapped; a stripe (built by
// StripeInto, the rectangular-grid round operand) carries the counting
// round as bandCol and round-space entries. Blocks carry their dimensions
// explicitly rather than a grid pointer, since on rectangular grids row and
// entry indices live in different bandings (row/column/round).
type Block struct {
	bandRow, bandCol int
	domain           int      // entry band size: every col value is < domain
	off              []int64  // len NRows+1
	col              []uint32 // band-relative entries, ascending per row
}

// BuildBlock2D assembles PE rank's block from its slice of the 2D scatter.
// Edges must be canon-oriented with bands matching the block (what
// ScatterEdges2D delivers); duplicates are merged. The two-pass layout plus
// per-row sort/dedup makes the result independent of the thread count.
func BuildBlock2D(g2 *part.Grid2D, rank int, edges []Edge, threads int) *Block {
	a, bc := g2.RowCol(rank)
	b := &Block{bandRow: a, bandCol: bc, domain: g2.BandSizeCol(bc)}
	nRows := g2.BandSizeRow(a)
	b.off = make([]int64, nRows+1)
	if len(edges) == 0 {
		return b
	}
	w := workersFor(threads, len(edges), parallelChunk)
	cnt := make([]int64, w*nRows)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		h := cnt[worker*nRows : (worker+1)*nRows]
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U >= e.V || g2.BandRow(e.U) != a || g2.BandCol(e.V) != bc {
				panic(fmt.Sprintf("graph: edge (%d,%d) does not belong to block (%d,%d)", e.U, e.V, a, bc))
			}
			h[g2.RelRow(e.U)]++
		}
	})
	pos := make([]int64, w*nRows)
	total := int64(0)
	for row := 0; row < nRows; row++ {
		for worker := 0; worker < w; worker++ {
			pos[worker*nRows+row] = total
			total += cnt[worker*nRows+row]
		}
		b.off[row+1] = total
	}
	b.col = make([]uint32, total)
	parallelBlocks(w, len(edges), func(worker, lo, hi int) {
		cur := pos[worker*nRows : (worker+1)*nRows]
		for i := lo; i < hi; i++ {
			e := edges[i]
			row := g2.RelRow(e.U)
			b.col[cur[row]] = uint32(g2.RelCol(e.V))
			cur[row]++
		}
	})
	// Sort and dedup each row, recording the surviving length.
	kept := make([]int64, nRows)
	ParallelFor(threads, nRows, func(_, lo, hi int) {
		for row := lo; row < hi; row++ {
			seg := b.col[b.off[row]:b.off[row+1]]
			slices.Sort(seg)
			kept[row] = int64(len(slices.Compact(seg)))
		}
	})
	// Compact the deduplicated rows (sequential: rows move down in order).
	wpos := int64(0)
	for row := 0; row < nRows; row++ {
		start := b.off[row]
		b.off[row] = wpos
		wpos += int64(copy(b.col[wpos:], b.col[start:start+kept[row]]))
	}
	b.off[nRows] = wpos
	b.col = b.col[:wpos]
	return b
}

// BuildBlockCSR assembles PE rank's block straight from the global CSR: it
// walks the rows u of its row band once and keeps, of the neighbors in its
// column band, those with u ≺ v (degrees read off g itself), as v div c —
// over all ranks, every edge of g exactly once. The keep is arithmetic, not
// a branch: every v/c is written to the worker's run and the cursor advances
// by [v mod c = b]·precedes(u, v), both of them coin flips a branch would
// mispredict. Rows arrive sorted and unique (checkRow holds every walked row
// to that), so there is no scatter, sort, dedup or degree exchange. Each
// worker fills its contiguous share of the rows into a run of its own and
// the runs are laid end to end, so the thread count has no effect on the
// result.
func BuildBlockCSR(g2 *part.Grid2D, rank int, g *Graph, threads int) *Block {
	a, bc := g2.RowCol(rank)
	b := &Block{bandRow: a, bandCol: bc, domain: g2.BandSizeCol(bc)}
	nRows := g2.BandSizeRow(a)
	b.off = make([]int64, nRows+1)
	c, res := Vertex(g2.C()), Vertex(bc)
	w := workersFor(threads, nRows, parallelChunk)
	runs := make([][]uint32, w)
	parallelBlocks(w, nRows, func(worker, lo, hi int) {
		// About 1/(r·c) of the CSR span under the rows is in band, and ≺
		// keeps half of that; a row that runs over grows the run.
		span := g.off[g2.GIDRow(a, Vertex(hi-1))+1] - g.off[g2.GIDRow(a, Vertex(lo))]
		col := make([]uint32, 0, span/int64(g2.P())*5/8)
		for rel := lo; rel < hi; rel++ {
			u := g2.GIDRow(a, Vertex(rel))
			nb := g.Neighbors(u)
			checkRow(nb, u, g2.N(), rank) // before any entry is used as an index
			kept := len(col)
			col = slices.Grow(col, len(nb))
			run := col[kept : kept+len(nb)]
			k := uint64(0)
			for _, v := range nb {
				run[k] = uint32(v / c)
				k += b2u(v%c == res) & precedes(len(nb), u, g.Degree(v), v)
			}
			col = col[:kept+int(k)]
			b.off[rel+1] = int64(k)
		}
		runs[worker] = col
	})
	for rel := 0; rel < nRows; rel++ {
		b.off[rel+1] += b.off[rel]
	}
	b.col = make([]uint32, 0, b.off[nRows])
	for _, col := range runs {
		b.col = append(b.col, col...)
	}
	return b
}

// BandRow returns the band indexing this block's rows.
func (b *Block) BandRow() int { return b.bandRow }

// BandCol returns the band its entries index.
func (b *Block) BandCol() int { return b.bandCol }

// Domain returns the entry band's size (every entry is < Domain).
func (b *Block) Domain() int { return b.domain }

// NRows returns the number of rows (the row band's size).
func (b *Block) NRows() int { return len(b.off) - 1 }

// NNZ returns the number of stored edges.
func (b *Block) NNZ() int { return len(b.col) }

// Row returns row rel's entries (band-relative, ascending).
func (b *Block) Row(rel int) []uint32 { return b.col[b.off[rel]:b.off[rel+1]] }

// Transpose returns the CSC view as a Block with the bands swapped: row j
// of the result lists the rel(u) of edges (u, v) with rel(v) = j. Entry
// order per row follows source row order, so rows come out ascending with
// no further sort.
func (b *Block) Transpose(threads int) *Block {
	t := &Block{bandRow: b.bandCol, bandCol: b.bandRow, domain: b.NRows()}
	nRowsT := b.domain
	t.off = make([]int64, nRowsT+1)
	nRows := b.NRows()
	w := workersFor(threads, nRows, 64)
	cnt := make([]int64, w*nRowsT)
	parallelBlocks(w, nRows, func(worker, lo, hi int) {
		h := cnt[worker*nRowsT : (worker+1)*nRowsT]
		for row := lo; row < hi; row++ {
			for _, v := range b.Row(row) {
				h[v]++
			}
		}
	})
	pos := make([]int64, w*nRowsT)
	total := int64(0)
	for row := 0; row < nRowsT; row++ {
		for worker := 0; worker < w; worker++ {
			pos[worker*nRowsT+row] = total
			total += cnt[worker*nRowsT+row]
		}
		t.off[row+1] = total
	}
	t.col = make([]uint32, total)
	parallelBlocks(w, nRows, func(worker, lo, hi int) {
		cur := pos[worker*nRowsT : (worker+1)*nRowsT]
		for row := lo; row < hi; row++ {
			for _, v := range b.Row(row) {
				t.col[cur[v]] = uint32(row)
				cur[v]++
			}
		}
	})
	return t
}

// StripeInto extracts into dst the entries congruent to residue modulo
// stride, translated to round space ((e − residue) / stride — an affine,
// order-preserving map), dropping rows that come up empty. round becomes
// dst's entry band and domain its entry domain (the round band's size).
// dst's off/col capacity is reused, so the steady-state exchange extracts
// without allocating. For stride 1 the stripe equals the whole block;
// callers skip the copy and use the block directly.
func (b *Block) StripeInto(dst *Block, round, residue, stride, domain int) {
	nRows := b.NRows()
	dst.bandRow, dst.bandCol, dst.domain = b.bandRow, round, domain
	if cap(dst.off) < nRows+1 {
		dst.off = make([]int64, nRows+1)
	}
	dst.off = dst.off[:nRows+1]
	dst.col = dst.col[:0]
	res, str := uint32(residue), uint32(stride)
	w := int64(0)
	for row := 0; row < nRows; row++ {
		dst.off[row] = w
		for _, v := range b.Row(row) {
			if v%str == res {
				dst.col = append(dst.col, (v-res)/str)
				w++
			}
		}
	}
	dst.off[nRows] = w
}

// Wire serialization: only non-empty rows are shipped, each as
// (relGap, len, first, gap, gap, ...). Rows leave in ascending order, so
// the row index travels as a gap off the previous row (the first row
// absolute), and the entries within a row are gap-differenced too — under
// the varint wire codec both become delta-varint compression, without the
// codec needing to know record boundaries.

// AppendWire appends the block's wire words to dst and returns it. dst grows
// at most once, to its final length: the wire holds 3 + 2·used + NNZ words
// for used non-empty rows.
func (b *Block) AppendWire(dst []uint64) []uint64 {
	used := 0
	for row := 0; row < b.NRows(); row++ {
		if b.off[row+1] > b.off[row] {
			used++
		}
	}
	dst = slices.Grow(dst, 3+2*used+b.NNZ())
	dst = append(dst, uint64(b.bandRow), uint64(b.bandCol), uint64(used))
	prevRow := 0
	first := true
	for row := 0; row < b.NRows(); row++ {
		seg := b.Row(row)
		if len(seg) == 0 {
			continue
		}
		if first {
			dst = append(dst, uint64(row))
			first = false
		} else {
			dst = append(dst, uint64(row-prevRow))
		}
		prevRow = row
		dst = append(dst, uint64(len(seg)))
		prev := uint32(0)
		for i, v := range seg {
			if i == 0 {
				dst = append(dst, uint64(v))
			} else {
				dst = append(dst, uint64(v-prev))
			}
			prev = v
		}
	}
	return dst
}

// DecodeBlockInto rebuilds a Block from wire words, validating the header
// against the bands the receiver expects for this round and sizing rows and
// entries by the caller-supplied dimensions (nRows rows, entries < domain).
// b's off and col capacity is reused, so the steady-state exchange decodes
// without allocating; a cold col grows once, to the entry count the wire
// implies: len(wire) − 3 − 2·used. That count is taken only for
// 0 ≤ used ≤ (len(wire) − 3)/2, so it never exceeds len(wire) and a hostile
// used is an error, never a huge allocation. Every entry is reconstructed
// and range-checked as a 64-bit word and narrowed to its 4-byte slot only
// once it is known to be below domain, so no wire value wraps into range.
// The rows arrive ascending (AppendWire's order), so the CSR assembles in
// one pass.
func DecodeBlockInto(wire []uint64, bandRow, bandCol, nRows, domain int, b *Block) error {
	if len(wire) < 3 {
		return fmt.Errorf("graph: block wire truncated (%d words)", len(wire))
	}
	if int(wire[0]) != bandRow || int(wire[1]) != bandCol {
		return fmt.Errorf("graph: block wire names bands (%d,%d), expected (%d,%d)", wire[0], wire[1], bandRow, bandCol)
	}
	if wire[2] > uint64(len(wire)-3)/2 {
		return fmt.Errorf("graph: block wire claims %d rows in %d words", wire[2], len(wire))
	}
	b.bandRow, b.bandCol, b.domain = bandRow, bandCol, domain
	used := int(wire[2])
	wire = wire[3:]
	if cap(b.off) < nRows+1 {
		b.off = make([]int64, nRows+1)
	}
	b.off = b.off[:nRows+1]
	b.col = slices.Grow(b.col[:0], len(wire)-2*used)
	w := int64(0)
	nextRow := 0
	for rec := 0; rec < used; rec++ {
		if len(wire) < 2 {
			return fmt.Errorf("graph: block wire truncated in record %d", rec)
		}
		// The first record carries its row absolute, later ones a gap off the
		// previous row (≥ 1: rows are strictly ascending on the wire).
		rel, ln := int(wire[0]), int(wire[1])
		if rec > 0 {
			rel += nextRow - 1 // nextRow is the previous record's row + 1
		}
		wire = wire[2:]
		if rel < nextRow || rel >= nRows || ln < 1 || ln > len(wire) {
			return fmt.Errorf("graph: block wire record %d malformed (rel=%d len=%d)", rec, rel, ln)
		}
		for ; nextRow <= rel; nextRow++ {
			b.off[nextRow] = w
		}
		prev := Vertex(0)
		for i := 0; i < ln; i++ {
			v := wire[i]
			if i > 0 {
				v += prev
			}
			if v >= Vertex(domain) || (i > 0 && v <= prev) {
				return fmt.Errorf("graph: block wire record %d entry %d out of order or range", rec, i)
			}
			b.col = append(b.col, uint32(v))
			prev = v
		}
		wire = wire[ln:]
		w += int64(ln)
	}
	if len(wire) != 0 {
		return fmt.Errorf("graph: %d trailing words after block wire", len(wire))
	}
	for ; nextRow <= nRows; nextRow++ {
		b.off[nextRow] = w
	}
	return nil
}
