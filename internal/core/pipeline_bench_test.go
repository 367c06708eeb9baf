package core

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkStealDequeSteadyState measures allocs/op of the overlap deque's
// steady state: records parked by the funnel, stolen in batches, processed
// via drainBatch with their release pins invoked. The ring grows to the
// peak backlog once and is reused forever after, and batch scratch lives
// with the worker — so the steady state must report zero allocations. This
// is the fourth leg of CI's allocation-regression gate, next to the queue
// flush/receive path and the adaptive kernels.
func BenchmarkStealDequeSteadyState(b *testing.B) {
	dq := newStealDeque()
	scratch := make([]recvRecord, dequeBatch)
	list := []uint64{100, 103, 104, 110, 117, 125, 126, 140}
	var released int64
	release := func() { released++ }
	var sink uint64
	fn := func(_ *countState, r recvRecord) { sink += r.v + uint64(len(r.list)) }

	const backlog = 256
	round := func() {
		for i := 0; i < backlog; i++ {
			dq.push(recvRecord{v: graph.Vertex(i), list: list, release: release})
		}
		for drainBatch(dq, scratch, nil, fn, false) > 0 {
		}
	}
	for i := 0; i < 16; i++ {
		round() // grow the ring to the peak backlog
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if released == 0 || sink == 0 {
		b.Fatal("deque processed no records; the benchmark is vacuous")
	}
}
