package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/transport"
)

// TestAlgorithmsOverTCP runs the full algorithms over the real TCP wire path
// (loopback, one endpoint per PE) and checks counts and LCC against the
// sequential oracle — the end-to-end integration test for the
// multi-process-capable transport.
func TestAlgorithmsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration")
	}
	g := gen.RMAT(gen.DefaultRMAT(8, 51))
	want := SeqCount(g)
	for _, algo := range paperVariants {
		net, err := transport.NewLoopbackTCPNetwork(4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algo.run(g, Config{P: 4, Network: net})
		net.Close()
		if err != nil {
			t.Fatalf("%s over TCP: %v", algo, err)
		}
		if res.Count != want {
			t.Fatalf("%s over TCP: count %d, want %d", algo, res.Count, want)
		}
	}
}

func TestLCCOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration")
	}
	g := gen.WebGraph(gen.WebConfig{N: 256, HostSize: 16, IntraP: 0.5, LongFactor: 2, Seed: 3})
	_, wantDeltas := SeqDeltas(g)
	net, err := transport.NewLoopbackTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := vCetric2.run(g, Config{P: 3, Network: net, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("TCP LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}
