package comm

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/transport"
)

func TestGroupValidation(t *testing.T) {
	runComms(t, 4, func(rank int, c *Comm) {
		if _, err := c.NewGroup(1<<16, []int{0, 1, 2, 3}); err == nil {
			t.Error("want error for oversized gid")
		}
		if _, err := c.NewGroup(0, nil); err == nil {
			t.Error("want error for empty member list")
		}
		if _, err := c.NewGroup(0, []int{0, 2, 1, 3}); err == nil {
			t.Error("want error for unsorted members")
		}
		if _, err := c.NewGroup(0, []int{0, 1, 2, 9}); err == nil {
			t.Error("want error for out-of-range member")
		}
		others := []int{(rank + 1) % 4, (rank + 2) % 4}
		slices.Sort(others)
		if _, err := c.NewGroup(0, others); err == nil {
			t.Error("want error when the caller is not a member")
		}
		g, err := c.NewGroup(7, []int{0, 1, 2, 3})
		if err != nil {
			t.Fatalf("valid group rejected: %v", err)
		}
		if g.Size() != 4 || g.Index() != rank {
			t.Errorf("size=%d index=%d, want 4/%d", g.Size(), g.Index(), rank)
		}
	})
}

// TestGroupBcast: every root in turn, over a strict subset of the ranks, for
// both codecs; non-members stay silent.
func TestGroupBcast(t *testing.T) {
	const p = 5
	members := []int{0, 2, 4} // strict subset: ranks 1 and 3 sit out
	for _, codec := range []Codec{Raw, Varint} {
		results := make([][][]uint64, p)
		runComms(t, p, func(rank int, c *Comm) {
			if !slices.Contains(members, rank) {
				return
			}
			g, err := c.NewGroup(3, members)
			if err != nil {
				t.Error(err)
				return
			}
			results[rank] = make([][]uint64, g.Size())
			for root := 0; root < g.Size(); root++ {
				payload := []uint64{uint64(root) * 100, 7, uint64(root)}
				if g.Index() == root {
					results[rank][root] = slices.Clone(g.Bcast(root, payload, codec))
				} else {
					buf := g.Bcast(root, nil, codec)
					results[rank][root] = slices.Clone(buf)
					g.Recycle(buf)
				}
			}
		})
		for _, rank := range members {
			for root := 0; root < len(members); root++ {
				want := []uint64{uint64(root) * 100, 7, uint64(root)}
				if !slices.Equal(results[rank][root], want) {
					t.Fatalf("rank %d root %d: got %v, want %v", rank, root, results[rank][root], want)
				}
			}
		}
	}
}

// TestGroupBcastMeteredAsData: the root's traffic lands in the data
// counters (frames, payload, encoded bytes) and each receiver charges one
// frame and its words.
func TestGroupBcastMeteredAsData(t *testing.T) {
	const p = 3
	var ms [p]Metrics
	runComms(t, p, func(rank int, c *Comm) {
		g, err := c.NewGroup(0, []int{0, 1, 2})
		if err != nil {
			t.Error(err)
			return
		}
		g.Bcast(0, []uint64{1, 2, 3, 4}, Varint)
		ms[rank] = c.M
	})
	root := ms[0]
	if root.SentFrames != 2 || root.PayloadWords != 8 || root.EncodedBytes == 0 {
		t.Fatalf("root metrics: %+v", root)
	}
	if root.SentWords != 2*(1+4) {
		t.Fatalf("root raw words %d, want %d", root.SentWords, 2*(1+4))
	}
	for rank := 1; rank < p; rank++ {
		m := ms[rank]
		if m.RecvFrames != 1 || m.RecvWords != 1+4 {
			t.Fatalf("rank %d metrics: %+v", rank, m)
		}
	}
}

// TestGroupRowColInterleaved runs the tk2d communication pattern on a 2×2
// and a rectangular 2×3 grid: every PE is in one row group and one column
// group, and the two broadcast streams interleave without stealing each
// other's frames (the demultiplexing the 16-bit group ID in the tag exists
// for). Every round the roots send first, then a Barrier runs with both
// streams' frames in flight, then the other members receive; the delayed
// cells hold data frames back for 3 or 40 Recv polls, so the barrier's
// control (word) frames overtake them, and a fast PE's next-round frames
// meet a slow PE still waiting on this round's. Tag confusion across the
// row/col streams or with the barrier surfaces as a wrong payload;
// TestGroupBcastRoundsOutOfOrder pins the rounds of one group.
func TestGroupRowColInterleaved(t *testing.T) {
	const rounds = 6
	for _, grid := range [][2]int{{2, 2}, {2, 3}} {
		for _, delay := range []int{0, 3, 40} {
			r, c := grid[0], grid[1]
			t.Run(fmt.Sprintf("%dx%d/delay=%d", r, c, delay), func(t *testing.T) {
				p := r * c
				var net transport.Network = transport.NewChanNetwork(p)
				if delay > 0 {
					net = &delayNet{inner: net, delay: delay}
				}
				defer net.Close()
				type got struct{ row, col [rounds][]uint64 }
				results := make([]got, p)
				runCommsOn(t, net, p, func(rank int, cm *Comm) {
					a, b := rank/c, rank%c
					rowRanks, colRanks := make([]int, c), make([]int, r)
					for j := range rowRanks {
						rowRanks[j] = a*c + j
					}
					for i := range colRanks {
						colRanks[i] = i*c + b
					}
					rowGrp, err := cm.NewGroup(uint64(a), rowRanks)
					if err != nil {
						t.Error(err)
						return
					}
					colGrp, err := cm.NewGroup(uint64(r+b), colRanks)
					if err != nil {
						t.Error(err)
						return
					}
					for k := 0; k < rounds; k++ {
						rowRoot, colRoot := k%c, k%r
						var rowPay, colPay []uint64
						if rowGrp.Index() == rowRoot {
							rowPay = []uint64{uint64(1000*a + k), uint64(k)}
						}
						if colGrp.Index() == colRoot {
							colPay = []uint64{uint64(5000*b + k)}
						}
						var rw, cw []uint64
						if rowGrp.Index() == rowRoot {
							rw = rowGrp.Bcast(rowRoot, rowPay, Varint)
						}
						if colGrp.Index() == colRoot {
							cw = colGrp.Bcast(colRoot, colPay, Varint)
						}
						cm.Barrier() // control frames overtake the held data frames
						if rowGrp.Index() != rowRoot {
							rw = rowGrp.Bcast(rowRoot, nil, Varint)
						}
						if colGrp.Index() != colRoot {
							cw = colGrp.Bcast(colRoot, nil, Varint)
						}
						results[rank].row[k] = slices.Clone(rw)
						results[rank].col[k] = slices.Clone(cw)
						if rowGrp.Index() != rowRoot {
							rowGrp.Recycle(rw)
						}
						if colGrp.Index() != colRoot {
							colGrp.Recycle(cw)
						}
					}
				})
				for rank := 0; rank < p; rank++ {
					a, b := rank/c, rank%c
					for k := 0; k < rounds; k++ {
						// Every member of row group a carries grid row a, and
						// every member of column group b carries column b, so
						// the expected payloads depend only on the group — any
						// cross-group frame theft would surface as the other
						// stream's value.
						wantRow := []uint64{uint64(1000*a + k), uint64(k)}
						wantCol := []uint64{uint64(5000*b + k)}
						if !slices.Equal(results[rank].row[k], wantRow) {
							t.Fatalf("rank %d round %d row: %v, want %v", rank, k, results[rank].row[k], wantRow)
						}
						if !slices.Equal(results[rank].col[k], wantCol) {
							t.Fatalf("rank %d round %d col: %v, want %v", rank, k, results[rank].col[k], wantCol)
						}
					}
				}
			})
		}
	}
}

// TestGroupBcastRoundsOutOfOrder: a member that finds a group's next
// broadcast before the current one takes each round's own payload — the
// per-group sequence number in the tag, not arrival order, decides. Rank 0
// roots two broadcasts into a frame recorder; rank 1 is handed the second
// frame first.
func TestGroupBcastRoundsOutOfOrder(t *testing.T) {
	rec := &frameRecorder{size: 2, frames: map[int][][]byte{}}
	root, err := New(rec).NewGroup(5, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	root.Bcast(0, []uint64{10, 11}, Varint)
	root.Bcast(0, []uint64{20}, Varint)
	sent := rec.frames[1]
	ep := &craftedEndpoint{rank: 1, size: 2, frames: []transport.Frame{{Bytes: sent[1]}, {Bytes: sent[0]}}}
	g, err := New(ep).NewGroup(5, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range [][]uint64{{10, 11}, {20}} {
		if got := g.Bcast(0, nil, Varint); !slices.Equal(got, want) {
			t.Fatalf("round %d: %v, want %v", round, got, want)
		}
	}
}

func TestGroupSize1(t *testing.T) {
	runComms(t, 1, func(rank int, c *Comm) {
		g, err := c.NewGroup(0, []int{0})
		if err != nil {
			t.Error(err)
			return
		}
		words := []uint64{4, 5, 6}
		if got := g.Bcast(0, words, Varint); !slices.Equal(got, words) {
			t.Errorf("size-1 bcast: %v", got)
		}
		if c.M.SentFrames != 0 {
			t.Errorf("size-1 group communicated: %+v", c.M)
		}
	})
}

// peerDownEndpoint fails every send with the verdict a transport gives for
// a condemned peer.
type peerDownEndpoint struct {
	transport.Endpoint
	dead int
}

func (e peerDownEndpoint) Send(int, []uint64) error { return e.down() }

func (e peerDownEndpoint) SendBytes(int, []byte) error { return e.down() }

func (e peerDownEndpoint) down() error {
	return &transport.PeerDownError{Rank: e.dead, Reason: "test verdict"}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestGroupSendFailureIsPeerLost: a broadcast whose send the transport
// refuses with a peer-down verdict raises *ErrPeerLost naming that peer —
// the value dist classifies as a lost peer — not a string.
func TestGroupSendFailureIsPeerLost(t *testing.T) {
	net := transport.NewChanNetwork(3)
	defer net.Close()
	inner, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(peerDownEndpoint{Endpoint: inner, dead: 2})
	g, err := c.NewGroup(4, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	v := recovered(func() { g.Bcast(0, []uint64{1, 2, 3}, Varint) })
	lost, ok := v.(*ErrPeerLost)
	if !ok {
		t.Fatalf("panic value %T (%v), want *ErrPeerLost", v, v)
	}
	if lost.Rank != 2 {
		t.Fatalf("lost rank %d, want 2", lost.Rank)
	}
}

// BenchmarkGroupBcastSteadyState is the allocation gate for the collective
// exchange: one op is a root→member block broadcast plus a member→root ack
// broadcast on the same group (the lock-step keeps the inbox bounded). After
// warmup fills the pooled decode buffers and the frame pool, both sides
// must run at 0 allocs/op.
func BenchmarkGroupBcastSteadyState(b *testing.B) {
	net := transport.NewChanNetwork(2)
	defer net.Close()
	eps := make([]transport.Endpoint, 2)
	for rank := range eps {
		ep, err := net.Endpoint(rank)
		if err != nil {
			b.Fatal(err)
		}
		eps[rank] = ep
	}
	const stopWord = ^uint64(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := New(eps[1])
		g, err := c.NewGroup(1, []int{0, 1})
		if err != nil {
			panic(err)
		}
		ack := []uint64{1}
		for {
			buf := g.Bcast(0, nil, Varint)
			done := len(buf) > 0 && buf[0] == stopWord
			g.Recycle(buf)
			g.Bcast(1, ack, Varint)
			if done {
				return
			}
		}
	}()
	c := New(eps[0])
	g, err := c.NewGroup(1, []int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	// A block-shaped payload: row records with gap-differenced entries, the
	// wire form AppendWire produces.
	payload := make([]uint64, 512)
	for i := range payload {
		payload[i] = uint64(i%37) + 1
	}
	round := func(words []uint64) {
		g.Bcast(0, words, Varint)
		ackBuf := g.Bcast(1, nil, Varint)
		g.Recycle(ackBuf)
	}
	for i := 0; i < 16; i++ {
		round(payload) // warmup: fill the decode buffers and the frame pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(payload)
	}
	b.StopTimer()
	round([]uint64{stopWord})
	wg.Wait()
}
