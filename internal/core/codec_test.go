package core

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/testgraph"
)

// codecPolicy is one wire setting of the cross-validation runs: the
// per-channel table channelCodecs ("auto", wire nil) or one codec forced
// onto every channel through Config.wire.
type codecPolicy struct {
	name string
	wire comm.Codec
}

func codecPolicies() []codecPolicy {
	policies := []codecPolicy{{name: "auto"}}
	for _, c := range []comm.Codec{comm.Raw, comm.Varint, comm.DeltaVarint} {
		policies = append(policies, codecPolicy{name: c.Name(), wire: c})
	}
	return policies
}

// TestCodecPoliciesMatchSequential is the cross-validation matrix of the
// codec layer: every algorithm on every fixture graph under every codec
// policy must reproduce the sequential count. Only the record marshalling
// boundary moves between policies, so any divergence is a codec bug by
// construction.
func TestCodecPoliciesMatchSequential(t *testing.T) {
	for _, fix := range testgraph.All {
		g, want := fix.Build(), fix.Triangles
		for _, policy := range codecPolicies() {
			for _, algo := range paperVariants {
				for _, p := range []int{4, 7} {
					t.Run(fmt.Sprintf("%s/%s/%s/p=%d", policy.name, fix.Name, algo, p), func(t *testing.T) {
						res, err := algo.run(g, Config{P: p, wire: policy.wire})
						if err != nil {
							t.Fatal(err)
						}
						if res.Count != want {
							t.Fatalf("%s on %s under %s with p=%d: count = %d, want %d",
								algo, fix.Name, policy.name, p, res.Count, want)
						}
					})
				}
			}
		}
	}
}

// TestDeltaVarintHalvesWireBytes is the headline acceptance bar: on the
// quick-start RGG2D instance, the per-channel codec table (delta-varint on
// the chNeigh neighborhood shipments) must cut bytes-on-wire well below the
// raw 8 bytes per word, while counting exactly the same triangles. The bar
// keeps the old "at least 2x under the raw codec": RawBytes is 1.16x the raw
// codec's encoded bytes on this instance (386,440 vs 333,350 B), so
// 2 × 1.16 = 2.32x against RawBytes.
func TestDeltaVarintHalvesWireBytes(t *testing.T) {
	g := gen.RGG2D(1<<12, 16, 42) // the README quick-start instance
	res, err := Run(AlgoDiTric, g, Config{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := SeqCount(g); res.Count != want {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	var raw, encoded int64
	for _, m := range res.PerPE {
		raw += m.RawBytes
		encoded += m.EncodedBytes
	}
	if encoded <= 0 {
		t.Fatal("no encoded bytes metered")
	}
	if agg := comm.AggregateOf(res.PerPE); agg.TotalEncodedBytes != encoded {
		t.Fatalf("aggregate encoded bytes %d != summed %d", agg.TotalEncodedBytes, encoded)
	}
	ratio := float64(raw) / float64(encoded)
	if ratio < 2.32 {
		t.Fatalf("codec table reduced wire bytes only %.2fx under raw words (raw=%d, encoded=%d), want >= 2.32x",
			ratio, raw, encoded)
	}
	t.Logf("RGG2D quick-start, DITRIC p=8: raw=%dB encoded=%dB (%.2fx)", raw, encoded, ratio)
}

// TestWireAccountingInvariants: raw bytes are exactly 8x the word volume on
// every PE, and the word-level metrics are codec-independent.
func TestWireAccountingInvariants(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 5))
	var words []int64
	for _, policy := range codecPolicies() {
		res, err := Run(AlgoCetric, g, Config{P: 4, wire: policy.wire})
		if err != nil {
			t.Fatal(err)
		}
		var sentWords int64
		for rank, m := range res.PerPE {
			if m.RawBytes != 8*m.SentWords {
				t.Fatalf("policy %s rank %d: RawBytes %d != 8*SentWords %d", policy.name, rank, m.RawBytes, m.SentWords)
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
// policy (Bloom words travel raw in the per-channel table, varint-wrapped
// when forced — either way they must survive the trip unchanged). The
// integer counters are exact; the float estimate is summed in
// message-arrival order, so it may differ by rounding between runs and only
// gets a tolerance.
func TestApproxCodecPolicies(t *testing.T) {
	g := gen.GNM(1<<10, 8<<10, 21)
	var first *ApproxResult
	for _, policy := range codecPolicies() {
		res, err := RunApproxCetric(g, Config{P: 4, wire: policy.wire},
			AMQConfig{BitsPerKey: 8})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Exact12 != first.Exact12 || res.Type3Raw != first.Type3Raw {
			t.Fatalf("policy %s changed the exact counters: %v/%v vs %v/%v", policy.name,
				res.Exact12, res.Type3Raw, first.Exact12, first.Type3Raw)
		}
		if diff := res.Estimate - first.Estimate; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("policy %s changed the estimate: %v vs %v", policy.name, res.Estimate, first.Estimate)
		}
	}
}
