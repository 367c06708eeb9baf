package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// runCluster spawns p goroutines with a Comm+Queue each and waits for all.
func runCluster(t *testing.T, p int, threshold int, indirect bool, body func(rank int, c *Comm, q *Queue)) []Metrics {
	t.Helper()
	net := transport.NewChanNetwork(p)
	defer net.Close()
	metrics := make([]Metrics, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		ep, err := net.Endpoint(rank)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			c := New(ep)
			var grid *Grid
			if indirect {
				grid = NewGrid(p)
			}
			q := NewQueue(c, threshold, grid)
			body(rank, c, q)
			metrics[rank] = c.M
		}(rank, ep)
	}
	wg.Wait()
	return metrics
}

func TestQueueDeliversAllRecordsExactlyOnce(t *testing.T) {
	for _, indirect := range []bool{false, true} {
		for _, p := range []int{2, 3, 7, 16} {
			const perPair = 20
			received := make([]map[uint64]int, p)
			runCluster(t, p, 64, indirect, func(rank int, c *Comm, q *Queue) {
				recv := make(map[uint64]int)
				received[rank] = recv
				q.Handle(0, func(src int, words []uint64) {
					for _, w := range words {
						recv[w]++
					}
				})
				c.Barrier()
				for dst := 0; dst < p; dst++ {
					if dst == rank {
						continue
					}
					for k := 0; k < perPair; k++ {
						// Unique tokens: sender, dst, k.
						token := uint64(rank)<<32 | uint64(dst)<<16 | uint64(k)
						q.Send(0, dst, []uint64{token})
					}
				}
				q.Drain()
			})
			for dst := 0; dst < p; dst++ {
				wantTotal := (p - 1) * perPair
				total := 0
				for token, cnt := range received[dst] {
					if cnt != 1 {
						t.Fatalf("p=%d indirect=%v: token %x delivered %d times", p, indirect, token, cnt)
					}
					if int(token>>16&0xffff) != dst {
						t.Fatalf("token %x delivered to wrong PE %d", token, dst)
					}
					total++
				}
				if total != wantTotal {
					t.Fatalf("p=%d indirect=%v: PE %d got %d records, want %d", p, indirect, dst, total, wantTotal)
				}
			}
		}
	}
}

func TestQueueSelfSendDispatchesInline(t *testing.T) {
	runCluster(t, 2, 0, false, func(rank int, c *Comm, q *Queue) {
		got := 0
		q.Handle(0, func(src int, words []uint64) {
			if src != rank {
				t.Errorf("self-send src = %d", src)
			}
			got += len(words)
		})
		q.Send(0, rank, []uint64{1, 2, 3})
		if got != 3 {
			t.Errorf("self send delivered %d words", got)
		}
		q.Drain()
	})
}

func TestQueueThresholdControlsFlushes(t *testing.T) {
	// A tiny threshold flushes per record; a huge one flushes only at Drain.
	counts := map[int]int64{}
	for _, threshold := range []int{1, 1 << 20} {
		ms := runCluster(t, 2, threshold, false, func(rank int, c *Comm, q *Queue) {
			q.Handle(0, func(int, []uint64) {})
			if rank == 0 {
				for i := 0; i < 100; i++ {
					q.Send(0, 1, []uint64{uint64(i)})
				}
			}
			q.Drain()
		})
		counts[threshold] = ms[0].SentFrames
	}
	if counts[1] < 100 {
		t.Fatalf("tiny threshold sent %d frames, want >= 100", counts[1])
	}
	if counts[1<<20] != 1 {
		t.Fatalf("huge threshold sent %d frames, want exactly 1", counts[1<<20])
	}
}

func TestQueuePeakBufferedRespectsThreshold(t *testing.T) {
	ms := runCluster(t, 2, 256, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(int, []uint64) {})
		if rank == 0 {
			for i := 0; i < 1000; i++ {
				q.Send(0, 1, []uint64{uint64(i), uint64(i), uint64(i)})
			}
		}
		q.Drain()
	})
	// Peak may exceed the threshold by at most one record (checked after
	// append), never by an unbounded amount.
	if ms[0].PeakBuffered > 256+16 {
		t.Fatalf("peak buffered %d greatly exceeds threshold", ms[0].PeakBuffered)
	}
}

func TestQueueHandlerTriggersReplies(t *testing.T) {
	// Request/reply inside a single Drain (the sparse all-to-all pattern).
	const p = 5
	replies := make([]int, p)
	runCluster(t, p, 32, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) {
			q.Send(1, src, []uint64{words[0] * 2})
		})
		q.Handle(1, func(src int, words []uint64) {
			replies[rank] += int(words[0])
		})
		c.Barrier()
		for dst := 0; dst < p; dst++ {
			if dst != rank {
				q.Send(0, dst, []uint64{uint64(rank)})
			}
		}
		q.Drain()
	})
	for rank, got := range replies {
		if got != 2*rank*(p-1) {
			t.Fatalf("PE %d got reply sum %d, want %d", rank, got, 2*rank*(p-1))
		}
	}
}

func TestQueueMultipleDrains(t *testing.T) {
	const p = 4
	var sums [p]uint64
	runCluster(t, p, 16, true, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) { sums[rank] += words[0] })
		for round := 0; round < 5; round++ {
			dst := (rank + 1 + round) % p
			if dst != rank {
				q.Send(0, dst, []uint64{1})
			}
			q.Drain()
		}
	})
	var total uint64
	for _, s := range sums {
		total += s
	}
	// 5 rounds × p senders, minus self-sends (when dst == rank).
	var want uint64
	for round := 0; round < 5; round++ {
		for rank := 0; rank < p; rank++ {
			if (rank+1+round)%p != rank {
				want++
			}
		}
	}
	if total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestQueuePayloadConservation(t *testing.T) {
	// Total payload received must equal total payload sent, and with
	// indirection the transport words must exceed the payload words.
	const p = 9
	var recvWords [p]int64
	ms := runCluster(t, p, 128, true, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) { recvWords[rank] += int64(len(words)) })
		c.Barrier()
		for dst := 0; dst < p; dst++ {
			if dst != rank {
				q.Send(0, dst, []uint64{1, 2, 3, 4, 5})
			}
		}
		q.Drain()
	})
	var sentPayload, gotPayload, transported int64
	for i := 0; i < p; i++ {
		sentPayload += ms[i].PayloadWords
		gotPayload += recvWords[i]
		transported += ms[i].SentWords
	}
	if sentPayload != gotPayload {
		t.Fatalf("payload conservation violated: sent %d, received %d", sentPayload, gotPayload)
	}
	if transported <= sentPayload {
		t.Fatalf("indirection should transport more words than payload: %d vs %d", transported, sentPayload)
	}
}

func TestQueueBufferReuseAcrossFlushCycles(t *testing.T) {
	// Every flush hands each hop's frame to the transport and the receiver
	// returns it to the pool, where the next frame picks it up; many flush
	// cycles with distinct payloads must still deliver every record intact
	// and exactly once.
	const p = 4
	const rounds = 50
	sums := make([]uint64, p)
	counts := make([]int, p)
	runCluster(t, p, 1, false, func(rank int, c *Comm, q *Queue) { // threshold 1: flush every record
		q.Handle(0, func(src int, words []uint64) {
			sums[rank] += words[0]
			counts[rank]++
		})
		c.Barrier()
		for r := 0; r < rounds; r++ {
			for dst := 0; dst < p; dst++ {
				if dst != rank {
					q.Send(0, dst, []uint64{uint64(rank*rounds + r)})
				}
			}
		}
		q.Drain()
	})
	for rank := 0; rank < p; rank++ {
		if counts[rank] != (p-1)*rounds {
			t.Fatalf("PE %d got %d records, want %d", rank, counts[rank], (p-1)*rounds)
		}
		var want uint64
		for src := 0; src < p; src++ {
			if src == rank {
				continue
			}
			for r := 0; r < rounds; r++ {
				want += uint64(src*rounds + r)
			}
		}
		if sums[rank] != want {
			t.Fatalf("PE %d sum = %d, want %d (buffer reuse corrupted payloads)", rank, sums[rank], want)
		}
	}
}

func TestPinPayloadKeepsArenaAlive(t *testing.T) {
	// A handler that hands its payload to another goroutine must pin the
	// decode arena; the pinned slice must stay intact while many further
	// frames are decoded (which recycles unpinned arenas), and release must
	// return the arena to the pool.
	const keep = 5
	type pinned struct {
		words   []uint64
		release func()
		want    uint64
	}
	var kept []pinned
	runCluster(t, 2, 1, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) {
			if len(kept) < keep {
				kept = append(kept, pinned{words: words, release: q.PinPayload(), want: words[0]})
			}
		})
		c.Barrier()
		if rank == 0 {
			for i := 0; i < 500; i++ {
				q.Send(0, 1, []uint64{uint64(1000 + i), uint64(i)})
			}
		}
		q.Drain()
	})
	if len(kept) != keep {
		t.Fatalf("kept %d payloads, want %d", len(kept), keep)
	}
	for i, pn := range kept {
		if pn.words[0] != pn.want {
			t.Fatalf("pinned payload %d corrupted: got %d, want %d", i, pn.words[0], pn.want)
		}
		pn.release()
	}
}

func TestPinPayloadOutsideHandlerIsNoop(t *testing.T) {
	runCluster(t, 1, 0, false, func(rank int, c *Comm, q *Queue) {
		release := q.PinPayload()
		release() // must not panic or touch any arena
	})
}

func TestPinPayloadOnSelfSendIsNoop(t *testing.T) {
	// Local dispatch passes the caller's slice, not an arena; pinning must
	// hand back a no-op release.
	runCluster(t, 1, 0, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) {
			release := q.PinPayload()
			release()
		})
		q.Send(0, rank, []uint64{7})
		q.Drain()
	})
}

func TestPinPayloadOnNestedSelfSendIsNoop(t *testing.T) {
	// A handler that self-sends mid-dispatch nests a local dispatch inside a
	// frame dispatch; the nested handler's PinPayload must see no arena (its
	// payload aliases the sender's slice, which an arena pin would not
	// protect), and the outer frame's arena must survive the nesting: many
	// outer records each pin, nest, and verify their payload afterwards.
	const records = 200
	got := 0
	runCluster(t, 2, 1, false, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) {
			outer := q.PinPayload()
			q.Send(1, rank, []uint64{words[0] * 2}) // nested local dispatch
			if words[0] >= records {
				t.Errorf("outer payload corrupted after nested dispatch: %d", words[0])
			}
			outer()
		})
		q.Handle(1, func(src int, words []uint64) {
			release := q.PinPayload() // must be the no-op, not the outer arena
			release()
			release() // double release of the no-op must be harmless
			got++
		})
		c.Barrier()
		if rank == 0 {
			for i := 0; i < records; i++ {
				q.Send(0, 1, []uint64{uint64(i)})
			}
		}
		q.Drain()
	})
	if got != records {
		t.Fatalf("nested handler ran %d times, want %d", got, records)
	}
}

func TestQueueUnknownChannelPanics(t *testing.T) {
	runCluster(t, 1, 0, false, func(rank int, c *Comm, q *Queue) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for unhandled channel")
			}
		}()
		q.Send(3, 0, []uint64{1})
	})
}

func TestQueueChannelRangePanics(t *testing.T) {
	runCluster(t, 1, 0, false, func(rank int, c *Comm, q *Queue) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range channel")
			}
		}()
		q.Send(MaxChannels, 0, []uint64{1})
	})
}

func TestDrainOnEmptyQueue(t *testing.T) {
	// Draining with no traffic at all must terminate.
	for _, p := range []int{1, 2, 5} {
		runCluster(t, p, 0, false, func(rank int, c *Comm, q *Queue) {
			q.Drain()
			q.Drain()
		})
	}
}

func TestStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Heavy random traffic with forwarding, small threshold, odd PE count.
	const p = 11
	var got [p]uint64
	runCluster(t, p, 7, true, func(rank int, c *Comm, q *Queue) {
		q.Handle(0, func(src int, words []uint64) {
			for _, w := range words {
				got[rank] += w
			}
		})
		c.Barrier()
		seed := uint64(rank + 1)
		for i := 0; i < 5000; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			dst := int(seed>>33) % p
			if dst != rank {
				q.Send(0, dst, []uint64{1})
			}
		}
		q.Drain()
	})
	var total uint64
	for _, g := range got {
		total += g
	}
	if total == 0 {
		t.Fatal("no traffic delivered")
	}
}

func ExampleQueue() {
	net := transport.NewChanNetwork(2)
	defer net.Close()
	var wg sync.WaitGroup
	out := make(chan string, 1)
	for rank := 0; rank < 2; rank++ {
		ep, _ := net.Endpoint(rank)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := New(ep)
			q := NewQueue(c, 0, nil)
			q.Handle(0, func(src int, words []uint64) {
				out <- fmt.Sprintf("PE %d got %v from PE %d", c.Rank(), words, src)
			})
			if rank == 0 {
				q.Send(0, 1, []uint64{42})
			}
			q.Drain()
		}(rank)
	}
	wg.Wait()
	fmt.Println(<-out)
	// Output: PE 1 got [42] from PE 0
}

// TestQueueSetThreshold pins the δ accessors the streaming driver relies on:
// each PE retunes its own δ after the resident size is known, mid-session,
// and later drain cycles must honor the new overflow boundary.
func TestQueueSetThreshold(t *testing.T) {
	const p = 3
	runCluster(t, p, 8, false, func(rank int, c *Comm, q *Queue) {
		if got := q.Threshold(); got != 8 {
			t.Errorf("rank %d: initial threshold %d, want 8", rank, got)
		}
		q.SetThreshold(100 * (rank + 1)) // per-PE δ values may differ
		if got := q.Threshold(); got != 100*(rank+1) {
			t.Errorf("rank %d: threshold %d after set, want %d", rank, got, 100*(rank+1))
		}
		q.SetThreshold(0) // clamped: δ < 1 would flush forever
		if got := q.Threshold(); got != 1 {
			t.Errorf("rank %d: threshold %d after clamp, want 1", rank, got)
		}
		q.SetThreshold(4)

		// Repeated drain cycles with the retuned δ: the streaming driver runs
		// one Drain per inserted batch on the same queue, so records must keep
		// flowing after each quiescence point.
		var got []uint64
		q.Handle(1, func(src int, words []uint64) { got = append(got, words...) })
		c.Barrier()
		for cycle := 0; cycle < 5; cycle++ {
			got = got[:0]
			for dst := 0; dst < p; dst++ {
				if dst != rank {
					q.Send(1, dst, []uint64{uint64(cycle)<<8 | uint64(rank)})
				}
			}
			q.Drain()
			if len(got) != p-1 {
				t.Errorf("rank %d cycle %d: received %d records, want %d", rank, cycle, len(got), p-1)
			}
			for _, w := range got {
				if int(w>>8) != cycle {
					t.Errorf("rank %d cycle %d: stale record %#x", rank, cycle, w)
				}
			}
			c.Barrier()
		}
	})
}

// frameRecorder is a transport.Endpoint stub for rank 0 of a size-rank
// cluster: it keeps every byte frame sent, per destination, and delivers
// nothing.
type frameRecorder struct {
	size   int
	frames map[int][][]byte
}

func (r *frameRecorder) Rank() int { return 0 }
func (r *frameRecorder) Size() int { return r.size }
func (r *frameRecorder) Send(dst int, words []uint64) error {
	return fmt.Errorf("unexpected word frame to %d: %v", dst, words)
}
func (r *frameRecorder) SendBytes(dst int, b []byte) error {
	r.frames[dst] = append(r.frames[dst], append([]byte(nil), b...))
	return nil
}
func (r *frameRecorder) Recv() (transport.Frame, bool) { return transport.Frame{}, false }
func (r *frameRecorder) Close() error                  { return nil }

// TestQueueFrameBytes pins the data-frame wire format and the counters the
// benchmark reads. A frame is the 8-byte little-endian data tag (kind 1,
// epoch 0), then per record the envelope — finalDst, origSrc, channel and
// the encoded payload's byte length, each a uvarint — and the payload in its
// channel's codec. SentWords counts the tag word plus envHdr + len(payload)
// words per record, whatever the codec; RawBytes is 8 × SentWords.
func TestQueueFrameBytes(t *testing.T) {
	ep := &frameRecorder{size: 3, frames: map[int][][]byte{}}
	c := New(ep)
	q := NewQueue(c, 1<<20, nil)
	q.SetCodec(1, Varint)
	q.SetCodec(2, DeltaVarint)

	long := make([]uint64, 20) // 160 raw bytes: a two-byte length uvarint
	for i := range long {
		long[i] = uint64(i) << 40
	}
	q.Send(0, 1, []uint64{1, 2, 300})
	q.Send(1, 2, []uint64{5, 128, 70000})
	q.Send(2, 1, []uint64{100, 103, 90})
	q.Send(1, 1, nil)
	q.Send(0, 2, long)
	q.Flush()
	q.Send(2, 2, []uint64{7})
	q.Flush()

	le := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	frame := func(records ...[]byte) []byte {
		return append(le(1), bytes.Join(records, nil)...)
	}
	rawLong := le(long...)
	want := map[int][][]byte{
		1: {frame(
			append([]byte{1, 0, 0, 24}, le(1, 2, 300)...),
			[]byte{1, 0, 2, 3, 0x64, 0x06, 0x19}, // 100, +3, −13 zigzagged
			[]byte{1, 0, 1, 0},                   // empty payload
		)},
		2: {
			frame(
				[]byte{2, 0, 1, 6, 0x05, 0x80, 0x01, 0xf0, 0xa2, 0x04},
				append([]byte{2, 0, 0, 0xa0, 0x01}, rawLong...),
			),
			frame([]byte{2, 0, 2, 1, 0x07}),
		},
	}
	for dst := 1; dst <= 2; dst++ {
		if len(ep.frames[dst]) != len(want[dst]) {
			t.Fatalf("hop %d got %d frames, want %d", dst, len(ep.frames[dst]), len(want[dst]))
		}
		for i, got := range ep.frames[dst] {
			if !bytes.Equal(got, want[dst][i]) {
				t.Errorf("hop %d frame %d:\n got % x\nwant % x", dst, i, got, want[dst][i])
			}
		}
	}

	// Raw words per frame: tag + (4+3) + (4+3) + (4+0) = 19 to hop 1,
	// tag + (4+3) + (4+20) = 32 and tag + (4+1) = 6 to hop 2. Encoded bytes
	// per frame: 8 + 28 + 7 + 4 = 47, 8 + 10 + 165 = 183 and 8 + 5 = 13.
	// Both hops' records of the first flush were buffered at once.
	m := c.M
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"SentFrames", m.SentFrames, 3},
		{"Flushes", m.Flushes, 3},
		{"SentWords", m.SentWords, 19 + 32 + 6},
		{"RawBytes", m.RawBytes, 8 * (19 + 32 + 6)},
		{"EncodedBytes", m.EncodedBytes, 47 + 183 + 13},
		{"PayloadWords", m.PayloadWords, 3 + 3 + 3 + 0 + 20 + 1},
		{"PeakBuffered", m.PeakBuffered, 18 + 31},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestArenaRewindKeepsPinnedPayloads: the receive side rewinds its decode
// arena after every record nobody pinned, so a pinned payload must survive
// both the rest of its own frame and many later frames. Every receiver pins
// every third record it gets. Under grid routing (p = 4, 2×2) rank 0's frame
// to rank 1 also carries the records for rank 3, which rank 1 forwards, so
// local and forwarded records share that frame.
func TestArenaRewindKeepsPinnedPayloads(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        int
		indirect bool
	}{{"direct", 2, false}, {"proxy", 4, true}} {
		t.Run(tc.name, func(t *testing.T) {
			type pinned struct {
				words, want []uint64
				release     func()
			}
			kept := make([][]pinned, tc.p)
			seen := make([]int, tc.p)
			payload := func(dst, i int) []uint64 {
				w := make([]uint64, 1+i%5)
				for k := range w {
					w[k] = uint64(dst)<<32 | uint64(i)<<8 | uint64(k)
				}
				return w
			}
			runCluster(t, tc.p, 1<<20, tc.indirect, func(rank int, c *Comm, q *Queue) {
				q.Handle(0, func(src int, words []uint64) {
					if seen[rank]%3 == 0 {
						kept[rank] = append(kept[rank], pinned{words: words,
							want: slices.Clone(words), release: q.PinPayload()})
					}
					seen[rank]++
				})
				c.Barrier()
				if rank == 0 {
					// One frame per hop holding 30 records per destination,
					// then 200 more frames of 4 records each.
					for i := 0; i < 30; i++ {
						for dst := 1; dst < tc.p; dst++ {
							q.Send(0, dst, payload(dst, i))
						}
					}
					q.Flush()
					for i := 30; i < 830; i++ {
						for dst := 1; dst < tc.p; dst++ {
							q.Send(0, dst, payload(dst, i))
						}
						if i%4 == 1 {
							q.Flush()
						}
					}
				}
				q.Drain()
			})
			for rank := 1; rank < tc.p; rank++ {
				if seen[rank] != 830 || len(kept[rank]) != 277 {
					t.Fatalf("rank %d saw %d records and pinned %d, want 830 and 277", rank, seen[rank], len(kept[rank]))
				}
				for i, pn := range kept[rank] {
					if !slices.Equal(pn.words, pn.want) {
						t.Fatalf("rank %d pinned payload %d overwritten: %v, want %v", rank, i, pn.words, pn.want)
					}
					pn.release()
				}
			}
		})
	}
}

// craftedEndpoint is rank `rank` of a size-rank cluster whose incoming
// frames are frames, delivered in order; sends vanish.
type craftedEndpoint struct {
	rank, size int
	frames     []transport.Frame
}

func (e *craftedEndpoint) Rank() int                { return e.rank }
func (e *craftedEndpoint) Size() int                { return e.size }
func (e *craftedEndpoint) Send(int, []uint64) error { return nil }
func (e *craftedEndpoint) SendBytes(_ int, b []byte) error {
	transport.PutBuf(b)
	return nil
}
func (e *craftedEndpoint) Close() error { return nil }
func (e *craftedEndpoint) Recv() (transport.Frame, bool) {
	if len(e.frames) == 0 {
		return transport.Frame{}, false
	}
	f := e.frames[0]
	e.frames = e.frames[1:]
	return f, true
}

// TestMisshapenFrameIsTyped hands one crafted frame from rank 2 to a PE
// waiting in Drain, in a group Bcast and in AllreduceSum. A frame whose tag
// cannot be read, whose kind is unknown or whose shape does not fit its kind
// fails every wait; a well-shaped control frame too short for its reader
// fails the wait that reads it (rank 0 is the drain coordinator and the
// allreduce root). Each must raise *CorruptFrameError naming rank 2 — the
// value dist classifies as a corrupt frame — not an index panic.
func TestMisshapenFrameIsTyped(t *testing.T) {
	const sender = 2
	le := func(w uint64) []byte { return binary.LittleEndian.AppendUint64(nil, w) }
	waits := map[string]func(c *Comm){
		"drain":     func(c *Comm) { NewQueue(c, 1<<10, nil).Drain() },
		"bcast":     func(c *Comm) { mustGroup(c).Bcast(0, nil, Varint) },
		"allreduce": func(c *Comm) { c.AllreduceSum([]uint64{1, 2}) },
	}
	misshapen := map[string][]uint64{
		"0-word":         {},
		"kind-0":         {0},
		"unknown-kind":   {tag(kindGroup+1, 0)},
		"data-as-words":  {tag(kindData, 0)},
		"group-as-words": {tag(kindGroup, 0)},
	}
	misshapenBytes := map[string][]byte{
		"0-byte":           {},
		"3-byte":           {1, 2, 3},
		"7-byte":           make([]byte, 7),
		"result-as-bytes":  le(tag(kindBcast, 0)),
		"barrier-as-bytes": le(tag(kindBarrier, 0)),
	}
	type cell struct {
		wait  string
		rank  int
		frame transport.Frame
	}
	cells := map[string]cell{
		"drain/short-probe":           {"drain", 1, transport.Frame{Words: []uint64{tag(kindProbe, 0)}}},
		"drain/short-reply":           {"drain", 0, transport.Frame{Words: []uint64{tag(kindReply, 0), 5}}},
		"allreduce/short-result":      {"allreduce", 1, transport.Frame{Words: []uint64{tag(kindBcast, 0), 7}}},
		"allreduce/long-contribution": {"allreduce", 0, transport.Frame{Words: []uint64{tag(kindReduce, 0), 1, 2, 3}}},
	}
	for wait := range waits {
		for name, w := range misshapen {
			cells[wait+"/"+name] = cell{wait, 1, transport.Frame{Words: w}}
		}
		for name, b := range misshapenBytes {
			cells[wait+"/"+name] = cell{wait, 1, transport.Frame{Bytes: b}}
		}
	}
	for name, cl := range cells {
		t.Run(name, func(t *testing.T) {
			f := cl.frame
			f.Src = sender
			c := New(&craftedEndpoint{rank: cl.rank, size: 3, frames: []transport.Frame{f}})
			c.SetDeadline(time.Second) // a frame the wait ignores ends as a watchdog, not a hang
			v := recovered(func() { waits[cl.wait](c) })
			cf, ok := v.(*CorruptFrameError)
			if !ok {
				t.Fatalf("panic value %T (%v), want *CorruptFrameError", v, v)
			}
			if cf.Src != sender {
				t.Fatalf("corrupt frame blamed on %d, want %d", cf.Src, sender)
			}
		})
	}
}

// mustGroup is the caller's group over all of c's ranks.
func mustGroup(c *Comm) *Group {
	members := make([]int, c.Size())
	for i := range members {
		members[i] = i
	}
	g, err := c.NewGroup(0, members)
	if err != nil {
		panic(err)
	}
	return g
}
