package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// TestStampedKernelReentrancy pins the two-marks rule. At Threads == 1 the
// queue handlers run inline inside shipper.ship, and with an aggregation
// threshold of one word every shipment overflows, flushes and polls — so
// records are received (and stamped into the receive mark) while the
// emission row that is shipping is still stamped. Sharing one mark between
// the two would trip Mark.Stamp's guard; blending the lists silently
// would miscount. TriC ships through one static exchange after its local
// loop and must come out the same.
func TestStampedKernelReentrancy(t *testing.T) {
	for _, name := range []string{"rmat", "K12"} {
		fx, _ := testgraph.ByName(name)
		g := fx.Build()
		for _, algo := range []Algorithm{AlgoDiTric, AlgoTriC} {
			for _, p := range []int{2, 4, 6} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", algo, name, p), func(t *testing.T) {
					res, err := Run(algo, g, Config{P: p, Threads: 1, Threshold: 1})
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != fx.Triangles {
						t.Fatalf("count = %d, want %d", res.Count, fx.Triangles)
					}
				})
			}
		}
	}
}

// TestCetricTypeCountsMatchEnumeration: the counting path classifies
// type-1/type-2 triangles with the kernel's split shape (two counters per
// wedge), the enumerating path (Collect) by looking at every closing vertex.
// Both must report the same Result.TypeCounts on every fixture.
func TestCetricTypeCountsMatchEnumeration(t *testing.T) {
	for _, fix := range testgraph.All {
		g := fix.Build()
		for _, p := range []int{1, 3, 4} {
			counted, err := Run(AlgoCetric, g, Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			enumerated, err := Run(AlgoCetric, g, Config{P: p, Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if counted.TypeCounts != enumerated.TypeCounts {
				t.Errorf("%s p=%d: counted types %v, enumerated types %v",
					fix.Name, p, counted.TypeCounts, enumerated.TypeCounts)
			}
			if counted.Count != fix.Triangles || uint64(len(enumerated.Triangles)) != fix.Triangles {
				t.Errorf("%s p=%d: counted %d, enumerated %d, want %d",
					fix.Name, p, counted.Count, len(enumerated.Triangles), fix.Triangles)
			}
		}
	}
}

// BenchmarkMarkedRecvSteadyState measures allocs/op of the stamped receive
// path: records with at least two local endpoints, hubs among them, go
// through recvNeigh — translate once, stamp into the receive mark, probe
// every endpoint (against the mark, or against the endpoint's hub bitmap
// where the record is the shorter side), un-stamp. The mark and the
// translation scratch are allocated on first use and reused, so the steady
// state must report zero allocations (CI allocation gate).
func BenchmarkMarkedRecvSteadyState(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(10, 42))
	const p = 4
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := graph.ScatterEdges(pt, g.Edges())
	lg := graph.BuildLocal(pt, 0, per[0])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	ori := graph.OrientLocalOnlyPar(lg, 1)
	ori.BuildHubs(8) // low threshold: most probed endpoints carry a bitmap

	// Records replay ghost rows' visible neighborhoods — sorted lists of
	// local vertices, the shape a remote v's A(v) has once it reaches this
	// PE — keeping those with a hub among at least two endpoints.
	type rec struct {
		v    graph.Vertex
		list []uint64
	}
	var recs []rec
	hubProbes := 0
	for r := lg.NLocal(); r < lg.Rows() && len(recs) < 64; r++ {
		nb := lg.RowNeighborRows(int32(r))
		if len(nb) < 2 {
			continue
		}
		list := make([]uint64, len(nb))
		for k, xr := range nb {
			list[k] = lg.GID(int32(xr))
		}
		hubs := 0
		for _, x := range list {
			if ori.HubBitset(int32(x-lg.First)) != nil {
				hubs++
			}
		}
		if hubs > 0 {
			recs = append(recs, rec{v: lg.GID(int32(r)), list: list})
			hubProbes += hubs
		}
	}
	if len(recs) == 0 || hubProbes == 0 {
		b.Fatal("no hub-heavy records to replay")
	}

	state := newCountState(lg, Config{P: p})
	for _, rc := range recs {
		state.recvNeigh(rc.v, rc.list, ori) // allocate the mark, grow the scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rc := range recs {
			state.recvNeigh(rc.v, rc.list, ori)
		}
	}
	b.StopTimer()
	if state.count == 0 || state.recvMark == nil {
		b.Fatal("stamped receive path found no triangles; the benchmark is vacuous")
	}
}
