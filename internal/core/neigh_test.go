package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// neighFixture is rank 0's view of a 128-vertex graph on two PEs: rank 0
// owns 0–63, rank 1 owns 64–127. The locals 0–39 form a clique and are all
// adjacent to 64, which is also adjacent to 65–127; 40–63 are isolated. Every
// local of the clique has degree 40, so the orientation follows IDs and
// d⁺(i) = 40 − i: rows on both sides of heavyOutDegree (d⁺(7), d⁺(8),
// d⁺(9) = 33, 32, 31). 64 is the one ghost here; 65–127 are rows only on
// rank 1.
func neighFixture() (*graph.LocalGraph, *graph.LocalOriented) {
	var edges []graph.Edge
	for i := graph.Vertex(0); i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
		edges = append(edges, graph.Edge{U: i, V: 64})
	}
	for u := graph.Vertex(65); u < 128; u++ {
		edges = append(edges, graph.Edge{U: 64, V: u})
	}
	g := graph.FromEdges(128, edges)
	pt := part.Uniform(128, 2)
	lg := graph.BuildLocal(pt, 0, graph.ScatterEdges(pt, edges)[0])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	return lg, graph.OrientLocalOnlyPar(lg, 1)
}

// ids returns the ascending IDs lo, lo+1, …, hi−1.
func ids(lo, hi uint64) []uint64 {
	var out []uint64
	for x := lo; x < hi; x++ {
		out = append(out, x)
	}
	return out
}

// deliver ships rec from rank 1 to rank 0 on channel ch over a chan network,
// into the handlers install puts on rank 0, and returns what rank 0's poll
// raised (nil if nothing).
func deliver(install func(pe *dist.PE), ch int, rec []uint64) (raised any) {
	net := transport.NewChanNetwork(2)
	defer net.Close()
	var pes [2]*dist.PE
	for rank := range pes {
		ep, err := net.Endpoint(rank)
		if err != nil {
			panic(err)
		}
		pes[rank] = dist.Attach(ep, 1<<20, false)
		for c, codec := range channelCodecs {
			pes[rank].Q.SetCodec(c, codec)
		}
	}
	install(pes[0])
	pes[1].Q.Send(ch, 0, rec)
	pes[1].Q.Flush()
	defer func() { raised = recover() }()
	for !pes[0].Q.Poll() {
	}
	return nil
}

// deliverNeigh delivers rec into the counting pipeline's handlers on
// neighFixture's rank 0 and returns what the poll raised.
func deliverNeigh(cfg Config, ch int, rec []uint64) (raised any) {
	lg, ori := neighFixture()
	return deliver(func(pe *dist.PE) {
		state := newCountState(lg, cfg)
		state.rule = newWedgeRule(lg, ori.OutDegree)
		newOverlapPipeline(pe, newStopwatch(pe.C, newPEOutcome()), lg, cfg, state,
			func(ws *countState, r recvRecord) { ws.recvRecord(r, ori) })
	}, ch, rec)
}

// TestNeighRecordRejectsHostileFrames: a neighbourhood record the receive
// kernels cannot take on trust — too short for its header, an A(v) that is
// not strictly ascending or holds an ID ≥ n, a v that is no row here while
// the record names a local vertex, or a heavy record (|A(v)| ≥
// heavyOutDegree) whose v is no ghost row here — is a corrupt frame from its
// sender, never an untyped panic or a silently wrong count. Each record
// travels from rank 1 to rank 0 through the wire and the pipeline's
// handlers, with and without LCC. The heavy records' partners lie on both
// sides of the gate: 0 < d⁺ < |A(v)| takes the locals 5–39 (d⁺ 35 … 1).
func TestNeighRecordRejectsHostileFrames(t *testing.T) {
	const big = 1 << 40
	for _, tc := range []struct {
		name string
		ch   int
		rec  []uint64
		ok   bool
	}{
		{"empty record", chNeigh, nil, false},
		{"unsorted list", chNeigh, []uint64{64, 2, 0, 1}, false},
		{"repeated entry", chNeigh, []uint64{64, 0, 0, 1}, false},
		{"ID = n", chNeigh, []uint64{64, 0, 1, 128}, false},
		{"ID = 2^64-1", chNeigh, []uint64{64, 0, 1, ^uint64(0)}, false},
		{"v no row here", chNeigh, []uint64{100, 0, 1}, false},
		{"v >= n", chNeigh, []uint64{big, 0, 1}, false},
		{"heavy: v no row here", chNeigh, append([]uint64{100}, ids(0, 36)...), false},
		{"heavy: v local", chNeigh, append([]uint64{50}, ids(65, 101)...), false},
		{"heavy: v >= n", chNeigh, append([]uint64{big}, ids(0, 36)...), false},
		{"heavy: no local named, v no row here", chNeigh, append([]uint64{100}, ids(65, 101)...), false},
		{"edge: empty record", chNeighEdge, nil, false},
		{"edge: no u", chNeighEdge, []uint64{64}, false},
		{"edge: unsorted list", chNeighEdge, []uint64{64, 0, 2, 1}, false},
		{"edge: ID >= n", chNeighEdge, []uint64{64, 0, 1, 129}, false},
		{"edge: v no row here", chNeighEdge, []uint64{100, 0, 1, 2}, false},
		{"well-formed", chNeigh, []uint64{64, 0, 1, 2}, true},
		{"light: heavy and light locals", chNeigh, []uint64{64, 0, 10, 20, 30}, true},
		{"empty list", chNeigh, []uint64{64}, true},
		{"no local named", chNeigh, []uint64{100, 101, 102}, true},
		{"heavy: well-formed", chNeigh, append([]uint64{64}, ids(0, 36)...), true},
		{"heavy: tie partner", chNeigh, append([]uint64{64}, ids(4, 40)...), true},
		{"heavy: no local named", chNeigh, append([]uint64{64}, ids(65, 101)...), true},
		{"heavy: edge record", chNeighEdge, append([]uint64{64, 20}, ids(0, 36)...), true},
		{"edge: well-formed", chNeighEdge, []uint64{64, 0, 1, 2}, true},
		{"edge: remote u", chNeighEdge, []uint64{100, 101, 102}, true},
	} {
		for _, lcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lcc=%v", tc.name, lcc), func(t *testing.T) {
				raised := deliverNeigh(Config{P: 2, LCC: lcc}, tc.ch, tc.rec)
				if tc.ok {
					if raised != nil {
						t.Fatalf("well-formed record %v raised %v", tc.rec, raised)
					}
					return
				}
				cf, isCorrupt := raised.(*comm.CorruptFrameError)
				if !isCorrupt || cf.Src != 1 {
					t.Fatalf("record %v raised %#v, want a *comm.CorruptFrameError from 1", tc.rec, raised)
				}
			})
		}
	}
}

// TestPairRecordsRejectHostileFrames: a ghost-Δ record (chDelta, or
// chDeltaF on an approximate run) is a list of pairs whose first word must
// be a local of the receiver. An odd length, or a first word that is a ghost here, no row here
// or ≥ n, is a corrupt frame from its sender — never an untyped panic, and
// never a Δ credited to a ghost row. Each record travels from rank 1 to rank
// 0 of neighFixture through the wire and the handler the engines install.
func TestPairRecordsRejectHostileFrames(t *testing.T) {
	lg, ori := neighFixture()
	install := map[int]func(pe *dist.PE){
		chDelta: func(pe *dist.PE) {
			s := newCountState(lg, Config{LCC: true})
			pe.Q.Handle(chDelta, s.handleDelta)
		},
		chDeltaF: func(pe *dist.PE) {
			s := newCountState(lg, Config{LCC: true})
			s.useAMQ(&AMQConfig{BitsPerKey: 8}, ori)
			pe.Q.Handle(chDeltaF, s.handleDeltaEst)
		},
	}
	one := math.Float64bits(1)
	for _, ch := range []int{chDelta, chDeltaF} {
		for _, tc := range []struct {
			name string
			rec  []uint64
			ok   bool
		}{
			{"odd length", []uint64{3, one, 5}, false},
			{"single word", []uint64{3}, false},
			{"ghost", []uint64{3, one, 64, one}, false},
			{"no row here", []uint64{100, one}, false},
			{"ID >= n", []uint64{1 << 40, one}, false},
			{"ID = 2^64-1", []uint64{^uint64(0), one}, false},
			{"well-formed", []uint64{3, one, 40, one}, true},
			{"empty", nil, true},
		} {
			t.Run(fmt.Sprintf("ch=%d/%s", ch, tc.name), func(t *testing.T) {
				raised := deliver(install[ch], ch, tc.rec)
				if tc.ok {
					if raised != nil {
						t.Fatalf("well-formed record %v raised %v", tc.rec, raised)
					}
					return
				}
				cf, isCorrupt := raised.(*comm.CorruptFrameError)
				if !isCorrupt || cf.Src != 1 {
					t.Fatalf("record %v raised %#v, want a *comm.CorruptFrameError from 1", tc.rec, raised)
				}
			})
		}
	}
}

// FuzzNeighRecord decodes random words as a neighbourhood record (chNeigh,
// or chNeighEdge when edge is set): checkNeigh must either reject it as a
// corrupt frame from its sender, or the record must count, on the fast path
// and under LCC alike, exactly the triangles a set intersection finds —
// |A(v) ∩ A(u)| over every local partner u the rule gives it (the named u
// of an edge record; a light v's locals u ∈ A(v) with d⁺(u) < heavyOutDegree;
// a heavy v's neighbours u with 0 < d⁺(u) < |A(v)| or d⁺(u) = |A(v)| and
// u ∈ A(v)) — with three LCC credits per triangle.
func FuzzNeighRecord(f *testing.F) {
	bytesOf := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	f.Add(false, bytesOf(64, 0, 1, 2))
	f.Add(false, bytesOf(64, 10, 20, 30, 31))
	f.Add(true, bytesOf(64, 20, 0, 20, 21))
	f.Add(false, bytesOf(64, 2, 0))
	f.Add(true, []byte{})
	f.Add(false, bytesOf(append([]uint64{64}, ids(4, 40)...)...))
	f.Add(false, bytesOf(append([]uint64{64}, ids(0, 36)...)...))
	lg, ori := neighFixture()
	rule := newWedgeRule(lg, ori.OutDegree)
	f.Fuzz(func(t *testing.T, edge bool, data []byte) {
		rec := make([]uint64, len(data)/8)
		for i := range rec {
			rec[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		hdr, ch := 1, chNeigh
		if edge {
			hdr, ch = 2, chNeighEdge
		}
		if cf := corruptFrom(func() { checkNeigh(lg, rule.heavy, 3, rec, hdr) }); cf != nil {
			if cf.Src != 3 {
				t.Fatalf("corrupt record blamed on %d, want 3", cf.Src)
			}
			return
		}
		list := rec[hdr:]
		in := make(map[uint64]bool, len(list))
		for _, x := range list {
			in[x] = true
		}
		dplus := func(u uint64) int { return ori.OutDegree(int32(u - lg.First)) }
		var partners []uint64
		switch dv := len(list); {
		case edge:
			partners = []uint64{rec[1]}
		case dv >= heavyOutDegree:
			gr, _ := lg.GhostRow(rec[0])
			for _, ur := range lg.RowNeighborRows(gr) {
				u := lg.GID(int32(ur))
				if du := dplus(u); (du > 0 && du < dv) || (du == dv && in[u]) {
					partners = append(partners, u)
				}
			}
		default:
			for _, u := range list {
				if lg.IsLocal(u) && dplus(u) < heavyOutDegree {
					partners = append(partners, u)
				}
			}
		}
		var want uint64
		for _, u := range partners {
			if !lg.IsLocal(u) {
				continue
			}
			for _, w := range ori.Out(int32(u - lg.First)) {
				if in[w] {
					want++
				}
			}
		}
		r := recvRecord{v: rec[0], list: list, kind: uint8(ch)}
		if edge {
			r.u = rec[1]
		}
		for _, lcc := range []bool{false, true} {
			s := newCountState(lg, Config{LCC: lcc})
			s.rule = rule
			if got := s.recvRecord(r, ori); got != want || s.count != want {
				t.Fatalf("record %v (lcc=%v): counted %d (state %d), want %d", rec, lcc, got, s.count, want)
			}
			var credits uint64
			for _, d := range s.deltaRows {
				credits += d
			}
			if lcc && credits != 3*want {
				t.Fatalf("record %v: %d LCC credits for %d triangles", rec, credits, want)
			}
		}
	})
}
