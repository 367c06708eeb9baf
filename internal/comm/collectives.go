package comm

import (
	"fmt"

	"repro/internal/transport"
)

// Collectives. Simple coordinator-rooted implementations: their cost is
// irrelevant to the measured quantities (they are metered as control
// traffic), they only need to be correct on both transports. Every wait in
// them goes through waitTag, so time blocked on a slower peer is IdleNs.
// They carry no data: the ghost-degree rounds are queue channels (sparse,
// codec-encoded, routable), and a Queue.Drain is their barrier.

// Barrier blocks until every PE has entered it.
func (c *Comm) Barrier() {
	e := c.nextEpoch(kindBarrier)
	p := c.Size()
	if c.Rank() != 0 {
		c.mustControl(0, []uint64{tag(kindBarrier, e)})
		c.waitTag(tag(kindRelease, e))
		return
	}
	for got := 1; got < p; got++ {
		c.waitTag(tag(kindBarrier, e))
	}
	for dst := 1; dst < p; dst++ {
		c.mustControl(dst, []uint64{tag(kindRelease, e)})
	}
}

// AllreduceSum sums vec element-wise over all PEs; every PE receives the
// result (vec is not modified).
func (c *Comm) AllreduceSum(vec []uint64) []uint64 {
	e := c.nextEpoch(kindReduce)
	p := c.Size()
	if c.Rank() != 0 {
		msg := make([]uint64, 1+len(vec))
		msg[0] = tag(kindReduce, e)
		copy(msg[1:], vec)
		c.mustControl(0, msg)
		f := c.waitTag(tag(kindBcast, e))
		checkReduceLen(f, len(vec))
		out := make([]uint64, len(vec))
		copy(out, f.Words[1:])
		return out
	}
	acc := make([]uint64, len(vec))
	copy(acc, vec)
	for got := 1; got < p; got++ {
		f := c.waitTag(tag(kindReduce, e))
		checkReduceLen(f, len(acc))
		for i, w := range f.Words[1:] {
			acc[i] += w
		}
	}
	msg := make([]uint64, 1+len(acc))
	msg[0] = tag(kindBcast, e)
	copy(msg[1:], acc)
	for dst := 1; dst < p; dst++ {
		c.mustControl(dst, msg)
	}
	return acc
}

// checkReduceLen rejects an allreduce frame (a contribution or the result)
// whose vector is not n words long.
func checkReduceLen(f transport.Frame, n int) {
	if len(f.Words)-1 != n {
		panic(&CorruptFrameError{Src: f.Src,
			Reason: fmt.Sprintf("allreduce length mismatch: %d vs %d", len(f.Words)-1, n)})
	}
}

func (c *Comm) mustControl(dst int, words []uint64) {
	if err := c.sendControl(dst, words); err != nil {
		raiseSendErr("control", dst, err)
	}
}
