package core

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/testgraph"
)

func codecPolicies() []string {
	return []string{CodecAuto, CodecRaw, CodecVarint, CodecDeltaVarint}
}

// TestCodecPoliciesMatchSequential is the cross-validation matrix of the
// codec refactor: every algorithm on every fixture graph under every wire
// codec policy must reproduce the sequential count. Only the record
// marshalling boundary moves between policies, so any divergence is a codec
// bug by construction.
func TestCodecPoliciesMatchSequential(t *testing.T) {
	for _, fix := range testgraph.All {
		g, want := fix.Build(), fix.Triangles
		for _, policy := range codecPolicies() {
			for _, algo := range paperVariants {
				for _, p := range []int{4, 7} {
					t.Run(fmt.Sprintf("%s/%s/%s/p=%d", policy, fix.Name, algo, p), func(t *testing.T) {
						res, err := algo.run(g, Config{P: p, Codec: policy})
						if err != nil {
							t.Fatal(err)
						}
						if res.Count != want {
							t.Fatalf("%s on %s under %s with p=%d: count = %d, want %d",
								algo, fix.Name, policy, p, res.Count, want)
						}
					})
				}
			}
		}
	}
}

// TestCodecPolicyRejected: unknown policies fail fast, before any PE spawns.
func TestCodecPolicyRejected(t *testing.T) {
	g := gen.Complete(8)
	if _, err := Run(AlgoCetric, g, Config{P: 2, Codec: "gzip"}); err == nil {
		t.Fatal("expected error for unknown codec policy")
	}
	if _, err := RunApproxCetric(g, Config{P: 2, Codec: "gzip"}, AMQConfig{}); err == nil {
		t.Fatal("expected error for unknown codec policy in approx run")
	}
}

// TestDeltaVarintHalvesWireBytes is the headline acceptance bar: on the
// quick-start RGG2D instance, delta-varint encoding of the chNeigh
// neighborhood shipments must cut bytes-on-wire at least 2x against the raw
// wire format, while counting exactly the same triangles.
func TestDeltaVarintHalvesWireBytes(t *testing.T) {
	g := gen.RGG2D(1<<12, 16, 42) // the README quick-start instance
	want := SeqCount(g)
	encoded := make(map[string]int64)
	for _, policy := range []string{CodecRaw, CodecDeltaVarint} {
		res, err := Run(AlgoDiTric, g, Config{P: 8, Codec: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("policy %s: count = %d, want %d", policy, res.Count, want)
		}
		var bytes int64
		for _, m := range res.PerPE {
			bytes += m.EncodedBytes
		}
		if bytes <= 0 {
			t.Fatalf("policy %s: no encoded bytes metered", policy)
		}
		encoded[policy] = bytes
		if agg := comm.AggregateOf(res.PerPE); agg.TotalEncodedBytes != bytes {
			t.Fatalf("policy %s: aggregate encoded bytes %d != summed %d", policy, agg.TotalEncodedBytes, bytes)
		}
	}
	ratio := float64(encoded[CodecRaw]) / float64(encoded[CodecDeltaVarint])
	if ratio < 2 {
		t.Fatalf("delta-varint reduced wire bytes only %.2fx over raw (raw=%d, delta=%d), want >= 2x",
			ratio, encoded[CodecRaw], encoded[CodecDeltaVarint])
	}
	t.Logf("RGG2D quick-start, DITRIC p=8: raw=%dB delta-varint=%dB (%.2fx)",
		encoded[CodecRaw], encoded[CodecDeltaVarint], ratio)
}

// TestWireAccountingInvariants: raw bytes are exactly 8x the word volume on
// every PE, the word-level metrics are codec-independent, and the raw policy
// never expands payload bytes on the wire.
func TestWireAccountingInvariants(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 5))
	var words []int64
	for _, policy := range codecPolicies() {
		res, err := Run(AlgoCetric, g, Config{P: 4, Codec: policy})
		if err != nil {
			t.Fatal(err)
		}
		var sentWords int64
		for rank, m := range res.PerPE {
			if m.RawBytes != 8*m.SentWords {
				t.Fatalf("policy %s rank %d: RawBytes %d != 8*SentWords %d", policy, rank, m.RawBytes, m.SentWords)
			}
			sentWords += m.SentWords
		}
		words = append(words, sentWords)
	}
	for i := 1; i < len(words); i++ {
		if words[i] != words[0] {
			t.Fatalf("SentWords must be codec-independent, got %v across policies", words)
		}
	}
}

// TestApproxCodecPolicies: the AMQ counters must not depend on the codec
// policy (Bloom words travel raw under auto, varint-wrapped when forced —
// either way they must survive the trip unchanged). The integer counters
// are exact; the float estimate is summed in message-arrival order, so it
// may differ by rounding between runs and only gets a tolerance.
func TestApproxCodecPolicies(t *testing.T) {
	g := gen.GNM(1<<10, 8<<10, 21)
	var first *ApproxResult
	for _, policy := range codecPolicies() {
		res, err := RunApproxCetric(g, Config{P: 4, Codec: policy},
			AMQConfig{BitsPerKey: 8, Truthful: true})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Exact12 != first.Exact12 || res.Type3Raw != first.Type3Raw {
			t.Fatalf("policy %s changed the exact counters: %v/%v vs %v/%v", policy,
				res.Exact12, res.Type3Raw, first.Exact12, first.Type3Raw)
		}
		if diff := res.Estimate - first.Estimate; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("policy %s changed the estimate: %v vs %v", policy, res.Estimate, first.Estimate)
		}
	}
}
