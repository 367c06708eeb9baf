package comm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// benchCluster runs body on p goroutine PEs once per iteration.
func benchCluster(b *testing.B, p, threshold int, indirect bool, body func(rank int, c *Comm, q *Queue)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		net := transport.NewChanNetwork(p)
		var wg sync.WaitGroup
		for rank := 0; rank < p; rank++ {
			ep, err := net.Endpoint(rank)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(rank int, ep transport.Endpoint) {
				defer wg.Done()
				c := New(ep)
				var grid *Grid
				if indirect {
					grid = NewGrid(p)
				}
				body(rank, c, NewQueue(c, threshold, grid))
			}(rank, ep)
		}
		wg.Wait()
		net.Close()
	}
}

// BenchmarkQueueAllToAll measures the aggregated all-to-all pattern of the
// global phase, direct vs grid-indirect.
func BenchmarkQueueAllToAll(b *testing.B) {
	const p = 16
	const records = 200
	for _, indirect := range []bool{false, true} {
		name := "direct"
		if indirect {
			name = "indirect"
		}
		b.Run(name, func(b *testing.B) {
			benchCluster(b, p, 1<<12, indirect, func(rank int, c *Comm, q *Queue) {
				q.Handle(0, func(int, []uint64) {})
				payload := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
				for r := 0; r < records; r++ {
					for dst := 0; dst < p; dst++ {
						if dst != rank {
							q.Send(0, dst, payload)
						}
					}
				}
				q.Drain()
			})
		})
	}
}

// BenchmarkQueueFlushSteadyState is the allocation-regression gate for the
// wire side: one op is a burst of aggregated records, a Flush, and the full
// receive path on the peer (decode into the pooled arena, dispatch, recycle
// the frame). /small is a burst of 64 records. /large is a burst of 4096,
// whose frame (≈ 48 KB) outgrows its first pooled buffer several times over
// during the warmup. After the warmup rounds have filled the frame and arena
// pools, every round must report 0 allocs/op.
func BenchmarkQueueFlushSteadyState(b *testing.B) {
	for _, bc := range []struct {
		name  string
		burst int
	}{{"small", 64}, {"large", 4096}} {
		b.Run(bc.name, func(b *testing.B) { benchQueueFlush(b, bc.burst) })
	}
}

func benchQueueFlush(b *testing.B, burst int) {
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
	sender := NewQueue(New(eps[0]), 1<<20, nil)
	sender.SetCodec(0, DeltaVarint)
	recvQ := NewQueue(New(eps[1]), 1<<20, nil)
	recvQ.SetCodec(0, DeltaVarint)
	var processed atomic.Int64
	recvQ.Handle(0, func(int, []uint64) { processed.Add(1) })

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if !recvQ.Poll() {
				runtime.Gosched()
			}
		}
		recvQ.Poll()
	}()

	payload := []uint64{100, 103, 104, 110, 117, 125, 126, 140}
	var sent int64
	round := func() {
		for k := 0; k < burst; k++ {
			sender.Send(0, 1, payload)
		}
		sender.Flush()
		sent += int64(burst)
		for processed.Load() < sent {
			// Lock-step with the receiver so its inbox cannot grow.
			runtime.Gosched()
		}
	}
	for i := 0; i < 16; i++ {
		round() // warmup: grow frames and arenas, fill the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}

// BenchmarkDrainIdle measures the fixed cost of the termination protocol.
func BenchmarkDrainIdle(b *testing.B) {
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCluster(b, p, 0, false, func(rank int, c *Comm, q *Queue) {
				q.Drain()
			})
		})
	}
}

// BenchmarkBarrier measures the collective round-trip.
func BenchmarkBarrier(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCluster(b, p, 0, false, func(rank int, c *Comm, q *Queue) {
				for i := 0; i < 10; i++ {
					c.Barrier()
				}
			})
		})
	}
}

// BenchmarkDenseExchange measures the degree-exchange primitive.
func BenchmarkDenseExchange(b *testing.B) {
	const p = 16
	benchCluster(b, p, 0, false, func(rank int, c *Comm, q *Queue) {
		data := make([][]uint64, p)
		for dst := range data {
			data[dst] = make([]uint64, 64)
		}
		c.DenseExchange(data)
	})
}
