package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// neighFixture is rank 0's view of an 8-vertex graph on two PEs: rank 0
// owns 0–3 (3 is isolated), rank 1 owns 4–7. Ghosts here are 5 and 6; 4
// and 7 are rows only on rank 1.
func neighFixture() (*graph.LocalGraph, *graph.LocalOriented) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 5}, {U: 1, V: 5},
		{U: 2, V: 5}, {U: 1, V: 6}, {U: 2, V: 6}, {U: 4, V: 5}, {U: 6, V: 7}}
	g := graph.FromEdges(8, edges)
	pt := part.Uniform(8, 2)
	lg := graph.BuildLocal(pt, 0, graph.ScatterEdges(pt, edges)[0])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	return lg, graph.OrientLocalOnlyPar(lg, 1)
}

// deliverNeigh ships rec from rank 1 to rank 0 on channel ch over a chan
// network, into the counting pipeline's handlers, and returns what rank 0's
// poll raised (nil if nothing) and the triangles it counted.
func deliverNeigh(cfg Config, ch int, rec []uint64) (raised any, count uint64) {
	lg, ori := neighFixture()
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
	state := newCountState(lg, cfg)
	newOverlapPipeline(pes[0], newStopwatch(pes[0].C, newPEOutcome()), lg, cfg, state,
		func(ws *countState, r recvRecord) { ws.recvRecord(r, ori) })
	pes[1].Q.Send(ch, 0, rec)
	pes[1].Q.Flush()
	defer func() {
		raised = recover()
		count = state.count
	}()
	for !pes[0].Q.Poll() {
	}
	return nil, state.count
}

// TestNeighRecordRejectsHostileFrames: a neighbourhood record the receive
// kernels cannot take on trust — too short for its header, an A(v) that is
// not strictly ascending or holds an ID ≥ n, or a v that is no row here
// while the record names a local vertex — is a corrupt frame from its
// sender, never an untyped panic or a silently wrong count. Each record
// travels from rank 1 to rank 0 through the wire and the pipeline's
// handlers, with and without LCC.
func TestNeighRecordRejectsHostileFrames(t *testing.T) {
	const big = 1 << 40
	for _, tc := range []struct {
		name string
		ch   int
		rec  []uint64
		ok   bool
	}{
		{"empty record", chNeigh, nil, false},
		{"unsorted list", chNeigh, []uint64{5, 2, 0, 1}, false},
		{"repeated entry", chNeigh, []uint64{5, 0, 0, 1}, false},
		{"ID = n", chNeigh, []uint64{5, 0, 1, 8}, false},
		{"ID = 2^64-1", chNeigh, []uint64{5, 0, 1, ^uint64(0)}, false},
		{"v no row here", chNeigh, []uint64{7, 0, 1}, false},
		{"v >= n", chNeigh, []uint64{big, 0, 1}, false},
		{"edge: empty record", chNeighEdge, nil, false},
		{"edge: no u", chNeighEdge, []uint64{5}, false},
		{"edge: unsorted list", chNeighEdge, []uint64{5, 0, 2, 1}, false},
		{"edge: ID >= n", chNeighEdge, []uint64{5, 0, 1, 9}, false},
		{"edge: v no row here", chNeighEdge, []uint64{7, 0, 1, 2}, false},
		{"well-formed", chNeigh, []uint64{5, 0, 1, 2}, true},
		{"empty list", chNeigh, []uint64{5}, true},
		{"no local named", chNeigh, []uint64{7, 4, 6}, true},
		{"edge: well-formed", chNeighEdge, []uint64{5, 0, 1, 2}, true},
		{"edge: remote u", chNeighEdge, []uint64{7, 4, 6}, true},
	} {
		for _, lcc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lcc=%v", tc.name, lcc), func(t *testing.T) {
				raised, _ := deliverNeigh(Config{P: 2, LCC: lcc}, tc.ch, tc.rec)
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
// |A(v) ∩ A(u)| over every local u it names — with three LCC credits per
// triangle.
func FuzzNeighRecord(f *testing.F) {
	bytesOf := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	f.Add(false, bytesOf(5, 0, 1, 2))
	f.Add(false, bytesOf(6, 1, 2, 5))
	f.Add(true, bytesOf(5, 1, 0, 2, 6))
	f.Add(false, bytesOf(5, 2, 0))
	f.Add(true, []byte{})
	lg, ori := neighFixture()
	f.Fuzz(func(t *testing.T, edge bool, data []byte) {
		rec := make([]uint64, len(data)/8)
		for i := range rec {
			rec[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		hdr, ch := 1, chNeigh
		if edge {
			hdr, ch = 2, chNeighEdge
		}
		if cf := corruptFrom(func() { checkNeigh(lg, 3, rec, hdr) }); cf != nil {
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
		var partners []uint64
		if edge {
			partners = []uint64{rec[1]}
		} else {
			partners = list
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
