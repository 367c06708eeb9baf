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

// TestCetricTypeCountsMatchEnumeration: the counting path picks the
// type-1/type-2 split once per row (one type for a ghost row or a row with
// no ghost in A(v), the mark's split at NLocal otherwise), the enumerating
// path (Collect) looks at every closing vertex. Both must report the same
// Result.TypeCounts on every fixture.
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
// path: records [x, A(x)] with at least two local partners, light and heavy
// x alike, go through recvNeigh — the partners picked by the rule (for a
// heavy x, off x's ghost row), A(x) translated once, stamped into the
// receive mark, probed by every partner, un-stamped. The mark, the
// translation scratch and the partner scratch are allocated on first use and
// reused, so the steady state must report zero allocations (CI allocation
// gate).
func BenchmarkMarkedRecvSteadyState(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 42))
	const p = 4
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := graph.ScatterEdges(pt, g.Edges())
	lg := graph.BuildLocal(pt, 0, per[0])
	og := graph.Orient(g)
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	ori := graph.OrientLocalOnlyPar(lg, 1)
	state := newCountState(lg, Config{P: p})
	state.rule = newWedgeRule(lg, ori.OutDegree)
	for i, gid := range lg.Ghosts() {
		state.rule.dplus[lg.NLocal()+i] = int32(og.OutDegree(gid))
	}

	// Records replay what the ghosts' owners ship here: each ghost's A(x) in
	// the global orientation, kept where the rule gives it two partners or
	// more here (recvNeigh leaves them in state.partners).
	type rec struct {
		v    graph.Vertex
		list []uint64
	}
	var recs []rec
	light, heavy := 0, 0
	for _, x := range lg.Ghosts() {
		ax := og.Out(x)
		state.recvNeigh(x, ax, ori) // allocate the mark, grow the scratch
		if len(state.partners) < 2 {
			continue
		}
		if state.rule.heavyRow(len(ax)) {
			heavy++
		} else if light >= 64 {
			continue
		} else {
			light++
		}
		recs = append(recs, rec{v: x, list: ax})
	}
	if light == 0 || heavy == 0 {
		b.Fatalf("%d light and %d heavy records to replay; the benchmark must reach both", light, heavy)
	}
	state.count = 0
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

// BenchmarkCetricLocalPhaseSteadyState measures one sweep of CETRIC's
// expansion (cetricLocalPhase) over every row of PE 0's expanded view of an
// RGG2D at p = 4: each A(v) stamped into the emission mark, every wedge
// probed, the triangle types split per row. The mark is allocated by a
// warm-up sweep before the timer starts, so the steady state must report
// zero allocations (CI allocation gate).
func BenchmarkCetricLocalPhaseSteadyState(b *testing.B) {
	g := gen.RGG2D(1<<13, 16, 42)
	const p = 4
	pt := part.Uniform(uint64(g.NumVertices()), p)
	per := graph.ScatterEdges(pt, g.Edges())
	lg := graph.BuildLocal(pt, 0, per[0])
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
	ori := graph.OrientLocalPar(lg, 1)
	state := newCountState(lg, Config{P: p})
	cetricLocalPhase(lg, ori, state, 0, lg.Rows())
	t1, t2 := state.t1, state.t2
	if t1 == 0 || t2 == 0 {
		b.Fatalf("sweep found %d type-1 and %d type-2 triangles; the benchmark must reach both", t1, t2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cetricLocalPhase(lg, ori, state, 0, lg.Rows())
	}
	b.StopTimer()
	if n := uint64(b.N + 1); state.t1 != t1*n || state.t2 != t2*n || state.count != (t1+t2)*n {
		b.Fatalf("sweeps disagree: %d+%d of %d after %d sweeps of %d+%d", state.t1, state.t2, state.count, n, t1, t2)
	}
}
