package comm

import (
	"runtime"
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
// grid: every PE is in one row group and one column group, and the two
// broadcast streams interleave without stealing each other's frames (the
// demultiplexing the 16-bit group ID in the tag exists for).
func TestGroupRowColInterleaved(t *testing.T) {
	const q = 2
	const p = q * q
	const rounds = 3
	type got struct{ row, col [rounds][]uint64 }
	results := make([]got, p)
	runComms(t, p, func(rank int, c *Comm) {
		r, cc := rank/q, rank%q
		rowGrp, err := c.NewGroup(uint64(r), []int{r * q, r*q + 1})
		if err != nil {
			t.Error(err)
			return
		}
		colGrp, err := c.NewGroup(uint64(q+cc), []int{cc, q + cc})
		if err != nil {
			t.Error(err)
			return
		}
		for k := 0; k < rounds; k++ {
			root := k % q
			rowPay := []uint64{uint64(1000*r + 10*k)}
			colPay := []uint64{uint64(5000*cc + 10*k)}
			var rw, cw []uint64
			if rowGrp.Index() == root {
				rw = rowGrp.Bcast(root, rowPay, Varint)
			} else {
				rw = rowGrp.Bcast(root, nil, Varint)
			}
			if colGrp.Index() == root {
				cw = colGrp.Bcast(root, colPay, Varint)
			} else {
				cw = colGrp.Bcast(root, nil, Varint)
			}
			results[rank].row[k] = slices.Clone(rw)
			results[rank].col[k] = slices.Clone(cw)
			if rowGrp.Index() != root {
				rowGrp.Recycle(rw)
			}
			if colGrp.Index() != root {
				colGrp.Recycle(cw)
			}
		}
	})
	for rank := 0; rank < p; rank++ {
		r, cc := rank/q, rank%q
		for k := 0; k < rounds; k++ {
			// Every member of row group r carries grid row r, and every member
			// of column group cc carries column cc, so the expected payloads
			// depend only on the group — any cross-group frame theft would
			// surface as the other stream's value.
			wantRow := []uint64{uint64(1000*r + 10*k)}
			wantCol := []uint64{uint64(5000*cc + 10*k)}
			if !slices.Equal(results[rank].row[k], wantRow) {
				t.Fatalf("rank %d round %d row: %v, want %v", rank, k, results[rank].row[k], wantRow)
			}
			if !slices.Equal(results[rank].col[k], wantCol) {
				t.Fatalf("rank %d round %d col: %v, want %v", rank, k, results[rank].col[k], wantCol)
			}
		}
	}
}

// TestGroupIBcastPipelinedInterleaved is the tag-safety property test for
// the split-phase exchange: on a rectangular 2×3 grid every PE keeps the
// round-(k+1) row AND column broadcasts in flight while consuming round k,
// over a network that holds data frames back for many Recv polls while
// letting control (word) frames overtake them — a Barrier runs between post
// and completion every round, so barrier traffic passes the delayed
// payloads. Any tag confusion (across rounds, across the row/col streams,
// or with the barrier) would surface as a wrong or misordered payload.
func TestGroupIBcastPipelinedInterleaved(t *testing.T) {
	const r, c = 2, 3
	const p = r * c
	const rounds = 6
	for _, delay := range []int{3, 40} {
		net := &delayNet{inner: transport.NewChanNetwork(p), delay: delay}
		type got struct{ row, col [rounds][]uint64 }
		results := make([]got, p)
		var wg sync.WaitGroup
		for rank := 0; rank < p; rank++ {
			ep, err := net.Endpoint(rank)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(rank int, ep transport.Endpoint) {
				defer wg.Done()
				cm := New(ep)
				a, b := rank/c, rank%c
				rowGrp, err := cm.NewGroup(uint64(a), []int{a * c, a*c + 1, a*c + 2})
				if err != nil {
					t.Error(err)
					return
				}
				colGrp, err := cm.NewGroup(uint64(r+b), []int{b, c + b})
				if err != nil {
					t.Error(err)
					return
				}
				post := func(k int) (BcastOp, BcastOp) {
					rowRoot, colRoot := k%c, k%r
					var rowPay, colPay []uint64
					if rowGrp.Index() == rowRoot {
						rowPay = []uint64{uint64(1000*a + k), uint64(k)}
					}
					if colGrp.Index() == colRoot {
						colPay = []uint64{uint64(5000*b + k)}
					}
					return rowGrp.IBcast(rowRoot, rowPay, Varint), colGrp.IBcast(colRoot, colPay, Varint)
				}
				rowOp, colOp := post(0)
				for k := 0; k < rounds; k++ {
					var nextRow, nextCol BcastOp
					if k+1 < rounds {
						nextRow, nextCol = post(k + 1) // round k+1 in flight behind round k
					}
					cm.Barrier() // control frames overtake the held data frames
					rw, cw := rowOp.Wait(), colOp.Wait()
					results[rank].row[k] = slices.Clone(rw)
					results[rank].col[k] = slices.Clone(cw)
					if rowGrp.Index() != k%c {
						rowGrp.Recycle(rw)
					}
					if colGrp.Index() != k%r {
						colGrp.Recycle(cw)
					}
					rowOp, colOp = nextRow, nextCol
				}
			}(rank, ep)
		}
		wg.Wait()
		net.Close()
		for rank := 0; rank < p; rank++ {
			a, b := rank/c, rank%c
			for k := 0; k < rounds; k++ {
				wantRow := []uint64{uint64(1000*a + k), uint64(k)}
				wantCol := []uint64{uint64(5000*b + k)}
				if !slices.Equal(results[rank].row[k], wantRow) {
					t.Fatalf("delay=%d rank %d round %d row: %v, want %v", delay, rank, k, results[rank].row[k], wantRow)
				}
				if !slices.Equal(results[rank].col[k], wantCol) {
					t.Fatalf("delay=%d rank %d round %d col: %v, want %v", delay, rank, k, results[rank].col[k], wantCol)
				}
			}
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
		op := g.IBcast(0, words, Varint)
		if got := op.Wait(); !slices.Equal(got, words) {
			t.Errorf("size-1 ibcast: %v", got)
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
	v := recovered(func() { g.IBcast(0, []uint64{1, 2, 3}, Varint) })
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

// BenchmarkIBcastSteadyState gates the split-phase path: each op posts the
// data broadcast and the reverse ack broadcast before completing either —
// two collectives in flight per iteration, value-typed handles, pooled
// decode buffers — and must run at 0 allocs/op on both sides once warm.
func BenchmarkIBcastSteadyState(b *testing.B) {
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
			op := g.IBcast(0, nil, Varint)
			ackOp := g.IBcast(1, ack, Varint)
			buf := op.Wait()
			done := len(buf) > 0 && buf[0] == stopWord
			g.Recycle(buf)
			ackOp.Wait()
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
	payload := make([]uint64, 512)
	for i := range payload {
		payload[i] = uint64(i%37) + 1
	}
	round := func(words []uint64) {
		op := g.IBcast(0, words, Varint)
		ackOp := g.IBcast(1, nil, Varint)
		op.Wait()
		ackBuf := ackOp.Wait()
		g.Recycle(ackBuf)
	}
	for i := 0; i < 16; i++ {
		round(payload)
	}
	// End the warm-up on a collection. While it runs the peer finishes its
	// last round, so the frame pool and the inbox are at their high water,
	// and its stop-the-world restarts start any OS thread the scheduler
	// still wants. Without it, a single timed iteration can catch either:
	// the slice growth of a new high water, or the runtime's allocations
	// for a fresh thread when ResetTimer's ReadMemStats restarts the world.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(payload)
	}
	b.StopTimer()
	round([]uint64{stopWord})
	wg.Wait()
}
