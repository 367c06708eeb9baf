package core

import (
	"repro/internal/comm"
)

// channelCodecs is the wire codec of each queue channel; plan.enter installs
// it on every PE. The channels carry structurally different records, so the
// per-channel codec choice is where the paper's observation that
// neighborhoods are sorted and clustered becomes wire-level savings: an
// adjacency row of clustered vertex IDs costs ~1–2 bytes per neighbor
// delta-encoded instead of 8 raw.
//
//   - chNeigh / chNeighEdge ship sorted vertex-ID sequences (adjacency
//     rows), and chDegReq an owner's ghosts in ID order → DeltaVarint.
//   - chDelta ships (gid, Δ) pairs of small counts without exploitable
//     order, chDeg and chOutDeg degrees in request order → Varint.
//   - chAMQ / chDeltaF ship high-entropy words (Bloom filter blocks,
//     Float64bits) that varints would expand past 8 bytes → Raw.
//
// A codec only moves the record marshalling boundary: every algorithm
// produces and consumes plain []uint64 payloads. The wire: line of every
// tricount run reports the encoded bytes against the raw 8 bytes per word.
var channelCodecs = func() [comm.MaxChannels]comm.Codec {
	var table [comm.MaxChannels]comm.Codec
	for ch := range table {
		table[ch] = comm.Varint
	}
	table[chNeigh] = comm.DeltaVarint
	table[chNeighEdge] = comm.DeltaVarint
	table[chDegReq] = comm.DeltaVarint
	table[chAMQ] = comm.Raw
	table[chDeltaF] = comm.Raw
	return table
}()

// DefaultThreshold is the authoritative aggregation threshold δ ∈ O(|E_i|):
// 2|E|/p words (with a small floor), the paper's linear-memory setting.
// Every run driver uses it when Config.Threshold is unset; comm.NewQueue's
// own 1<<16 fallback only exists for direct Queue users outside these
// drivers.
func DefaultThreshold(numEdges, p int) int {
	t := 2 * numEdges / p
	if t < 1024 {
		t = 1024
	}
	return t
}
