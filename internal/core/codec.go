package core

import (
	"fmt"

	"repro/internal/comm"
)

// Wire codec policies. The queue channels carry structurally different
// records, so the per-channel codec choice is where the paper's observation
// that neighborhoods are sorted and clustered becomes wire-level savings:
// an adjacency row of clustered vertex IDs costs ~1–2 bytes per neighbor
// delta-encoded instead of 8 raw.
//
// A policy names either one codec forced onto every channel ("raw",
// "varint", "deltavarint" — useful for ablations and the compression-ratio
// benchmarks) or the tuned per-channel assignment ("auto", the default):
//
//   - chNeigh / chNeighEdge / chDegReq ship sorted vertex-ID sequences
//     (adjacency rows, ghost-ID request lists) → DeltaVarint.
//   - chDelta / chDegRep / chWedge ship small integers (Δ counts, degrees)
//     or ID pairs without exploitable order → Varint.
//   - chAMQ / chDeltaF ship high-entropy words (Bloom filter blocks,
//     Float64bits) that varints would expand past 8 bytes → Raw.
//
// The policy only moves the record marshalling boundary: every algorithm
// produces and consumes the same []uint64 payloads under every policy, so
// the cross-validation matrix (dist_test, codec_test) proves counts are
// codec-independent.

// Codec policy names accepted by Config.Codec.
const (
	CodecAuto        = "auto" // tuned per-channel assignment (the default)
	CodecRaw         = "raw"  // seed wire format on every channel
	CodecVarint      = "varint"
	CodecDeltaVarint = "deltavarint"
)

// channelCodecs resolves a policy name to the per-channel codec table.
func channelCodecs(policy string) ([comm.MaxChannels]comm.Codec, error) {
	var table [comm.MaxChannels]comm.Codec
	switch policy {
	case "", CodecAuto:
		for ch := range table {
			table[ch] = comm.Varint
		}
		table[chNeigh] = comm.DeltaVarint
		table[chNeighEdge] = comm.DeltaVarint
		table[chDegReq] = comm.DeltaVarint
		table[chAMQ] = comm.Raw
		table[chDeltaF] = comm.Raw
		return table, nil
	case CodecRaw, CodecVarint, CodecDeltaVarint:
		c, err := comm.CodecByName(policy)
		if err != nil {
			return table, err
		}
		for ch := range table {
			table[ch] = c
		}
		return table, nil
	default:
		return table, fmt.Errorf("core: unknown codec policy %q (want auto, raw, varint, or deltavarint)", policy)
	}
}

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
