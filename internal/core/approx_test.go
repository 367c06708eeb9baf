package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/amq"
	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

func TestApproxCetricExact12MatchesCetric(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 41))
	for _, p := range []int{2, 4, 7} {
		exact, err := Run(AlgoCetric, g, Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 8})
		if err != nil {
			t.Fatal(err)
		}
		want12 := exact.TypeCounts[0] + exact.TypeCounts[1]
		if approx.Exact12 != want12 {
			t.Fatalf("p=%d: exact12 = %d, want %d", p, approx.Exact12, want12)
		}
	}
}

func TestApproxCetricOverestimatesBeforeCorrection(t *testing.T) {
	// Bloom filters can only produce false positives, so the raw type-3
	// count must be >= the true type-3 count.
	g := gen.GNM(600, 7200, 3) // GNM: many type-3 triangles
	p := 6
	exact, err := Run(AlgoCetric, g, Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 4})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Type3Raw < exact.TypeCounts[2] {
		t.Fatalf("raw type-3 %d below true %d: false negatives?", approx.Type3Raw, exact.TypeCounts[2])
	}
}

func TestApproxCetricAccuracyImprovesWithBits(t *testing.T) {
	g := gen.GNM(500, 6000, 11)
	p := 5
	exact, err := Run(AlgoCetric, g, Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(exact.Count)
	var prevErr float64 = math.Inf(1)
	improved := 0
	for _, bits := range []float64{2, 6, 16} {
		approx, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: bits})
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(approx.Estimate-truth) / truth
		if relErr < prevErr {
			improved++
		}
		prevErr = relErr
		if bits >= 16 && relErr > 0.05 {
			t.Fatalf("16 bits/key should be near exact, rel err %.4f", relErr)
		}
	}
	if improved == 0 {
		t.Fatal("accuracy never improved with more bits")
	}
}

func TestApproxCetricTruthfulCorrectionHelps(t *testing.T) {
	g := gen.GNM(500, 6000, 13)
	p := 5
	exact, err := Run(AlgoCetric, g, Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(exact.Count)
	raw, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 3, uncorrected: true})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 3})
	if err != nil {
		t.Fatal(err)
	}
	errRaw := math.Abs(raw.Estimate - truth)
	errCorr := math.Abs(corr.Estimate - truth)
	if errCorr > errRaw {
		t.Fatalf("truthful correction made it worse: |%f-%f| vs |%f-%f|",
			corr.Estimate, truth, raw.Estimate, truth)
	}
}

func TestApproxVolumeBelowExactOnWideNeighborhoods(t *testing.T) {
	// With few bits per key the AMQ payload must undercut shipping the
	// plain neighborhoods.
	g := gen.GNM(800, 12800, 19)
	p := 8
	exact, err := Run(AlgoCetric, g, Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 4})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Agg.TotalPayload >= exact.Agg.TotalPayload {
		t.Fatalf("AMQ payload %d not below exact global payload %d",
			approx.Agg.TotalPayload, exact.Agg.TotalPayload)
	}
}

func TestApproxLCCTracksExact(t *testing.T) {
	g := gen.WebGraph(gen.WebConfig{N: 512, HostSize: 16, IntraP: 0.5, LongFactor: 3, Seed: 7})
	exactLCC := SeqLCC(g)
	res, err := RunApproxCetric(g, Config{P: 6, LCC: true}, AMQConfig{BitsPerKey: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LCCEstimates) != g.NumVertices() {
		t.Fatalf("LCC estimates length %d", len(res.LCCEstimates))
	}
	var mae float64
	for v := range exactLCC {
		mae += math.Abs(res.LCCEstimates[v] - exactLCC[v])
	}
	mae /= float64(len(exactLCC))
	if mae > 0.05 {
		t.Fatalf("approximate LCC mean abs error %.4f too high", mae)
	}
	// Delta estimates must total ~3 triangles each.
	var sumD float64
	for _, d := range res.DeltaEstimates {
		sumD += d
	}
	if math.Abs(sumD-3*res.Estimate)/(3*res.Estimate) > 0.01 {
		t.Fatalf("Δ estimates sum %.1f, want ≈ 3×%.1f", sumD, res.Estimate)
	}
}

func TestApproxLCCExactWhenNoType3(t *testing.T) {
	// A clique chain partitioned so that all triangles stay within one or
	// two PEs: the estimate must be exact.
	g := gen.CliqueChain(8, 6)
	_, wantDeltas := SeqDeltas(g)
	res, err := RunApproxCetric(g, Config{P: 4, LCC: true}, AMQConfig{BitsPerKey: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if math.Abs(res.DeltaEstimates[v]-float64(want)) > 1e-9 {
			t.Fatalf("Δ̂(%d) = %f, want %d", v, res.DeltaEstimates[v], want)
		}
	}
}

// TestApproxRejectsBadBits: a filter size that is NaN, infinite or above
// MaxBitsPerKey is a set-up error before any PE spawns (NaN and +Inf used to
// abort a PE body in growslice, 1e9 to exhaust memory), while ≤ 0 selects
// the default 8 and the cap itself is accepted.
func TestApproxRejectsBadBits(t *testing.T) {
	g := gen.GNM(1<<8, 1<<11, 5)
	for _, bits := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), MaxBitsPerKey + 0.5, 1e9} {
		if _, err := RunApproxCetric(g, Config{P: 4}, AMQConfig{BitsPerKey: bits}); err == nil {
			t.Errorf("BitsPerKey %v accepted", bits)
		}
	}
	want, err := RunApproxCetric(g, Config{P: 4}, AMQConfig{BitsPerKey: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []float64{0, -3} {
		res, err := RunApproxCetric(g, Config{P: 4}, AMQConfig{BitsPerKey: bits})
		if err != nil {
			t.Fatalf("BitsPerKey %v: %v", bits, err)
		}
		if res.Exact12 != want.Exact12 || res.Type3Raw != want.Type3Raw || res.Agg.TotalWords != want.Agg.TotalWords {
			t.Errorf("BitsPerKey %v: exact %d raw %d words %d, want the default 8's %d %d %d", bits,
				res.Exact12, res.Type3Raw, res.Agg.TotalWords, want.Exact12, want.Type3Raw, want.Agg.TotalWords)
		}
	}
	if _, err := RunApproxCetric(g, Config{P: 4}, AMQConfig{BitsPerKey: MaxBitsPerKey}); err != nil {
		t.Errorf("BitsPerKey %d (the cap): %v", MaxBitsPerKey, err)
	}
}

// TestApproxMatchesAcrossSchedules: the approximate run is the CETRIC
// pipeline with one record kind changed, so every schedule of that pipeline
// must produce the same estimates. Uncorrected they are sums of integers —
// exact in float64 whatever the summation order — and must equal the
// barriered Threads = 1 cell bit for bit; the corrected estimates are sums
// of fractions, so they get a relative tolerance. Exact12 is exact CETRIC's
// type-1 + type-2 count, and at 64 bits per key (k = 16, a false positive
// rate near 1e-10) the filters make no false positive on these fixtures, so
// the raw type-3 count is exact too.
func TestApproxMatchesAcrossSchedules(t *testing.T) {
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
	}
	for _, fix := range testgraph.All {
		g := fix.Build()
		for _, p := range []int{1, 2, 4, 8} {
			exact, err := Run(AlgoCetric, g, Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := RunApproxCetric(g, Config{P: p}, AMQConfig{BitsPerKey: 64})
			if err != nil {
				t.Fatal(err)
			}
			if wide.Type3Raw != exact.TypeCounts[2] {
				t.Errorf("%s p=%d: 64 bits/key raw type-3 %d, want %d", fix.Name, p, wide.Type3Raw, exact.TypeCounts[2])
			}
			var base, baseT *ApproxResult
			for _, threads := range []int{1, 3} {
				for _, overlap := range []bool{false, true} {
					cell := fmt.Sprintf("%s p=%d threads=%d overlap=%v", fix.Name, p, threads, overlap)
					cfg := Config{P: p, Threads: threads, Overlap: overlap, LCC: true}
					raw, err := RunApproxCetric(g, cfg, AMQConfig{BitsPerKey: 4, uncorrected: true})
					if err != nil {
						t.Fatal(err)
					}
					tru, err := RunApproxCetric(g, cfg, AMQConfig{BitsPerKey: 4})
					if err != nil {
						t.Fatal(err)
					}
					if want := exact.TypeCounts[0] + exact.TypeCounts[1]; raw.Exact12 != want || tru.Exact12 != want {
						t.Errorf("%s: Exact12 %d / %d, want %d", cell, raw.Exact12, tru.Exact12, want)
					}
					if raw.Type3Raw < exact.TypeCounts[2] {
						t.Errorf("%s: raw type-3 %d below the true %d", cell, raw.Type3Raw, exact.TypeCounts[2])
					}
					if base == nil {
						base, baseT = raw, tru
						continue
					}
					if raw.Type3Raw != base.Type3Raw || raw.Type3Estimate != base.Type3Estimate ||
						!slices.Equal(raw.DeltaEstimates, base.DeltaEstimates) {
						t.Errorf("%s: raw %d/%v differs from the barriered threads=1 cell's %d/%v (or its Δ estimates do)",
							cell, raw.Type3Raw, raw.Type3Estimate, base.Type3Raw, base.Type3Estimate)
					}
					if tru.Type3Raw != baseT.Type3Raw || !near(tru.Estimate, baseT.Estimate) {
						t.Errorf("%s: corrected %d/%v, barriered threads=1 cell %d/%v",
							cell, tru.Type3Raw, tru.Estimate, baseT.Type3Raw, baseT.Estimate)
					}
					for v, d := range tru.DeltaEstimates {
						if !near(d, baseT.DeltaEstimates[v]) {
							t.Fatalf("%s: corrected Δ̂(%d) = %v, barriered threads=1 cell %v", cell, v, d, baseT.DeltaEstimates[v])
						}
					}
				}
			}
		}
	}
}

// corruptFrom runs fn and returns the *comm.CorruptFrameError it panicked
// with, or nil if it returned; any other panic propagates.
func corruptFrom(fn func()) (cf *comm.CorruptFrameError) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if cf, ok = r.(*comm.CorruptFrameError); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

// TestAMQRecordRejectsHostileFrames: a filter record whose header does not
// describe its words is a corrupt frame from its sender — never a division
// by zero or an index out of range on the receiving PE.
func TestAMQRecordRejectsHostileFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  []uint64
	}{
		{"empty record", nil},
		{"record shorter than its header", []uint64{7}},
		{"bloom without filter words", []uint64{7, 3}},
		{"bloom without bit words", []uint64{7, 3, 64, 4}},
		{"bloom m=0", []uint64{7, 3, 0, 4, 0}},
		{"bloom m past its words", []uint64{7, 3, 128, 4, 0}},
		{"bloom m short of its words", []uint64{7, 3, 64, 4, 0, 0}},
		{"bloom k=0", []uint64{7, 3, 64, 0, 0}},
		{"bloom k=17", []uint64{7, 3, 64, 17, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cf := corruptFrom(func() { checkAMQ(2, tc.rec) }); cf == nil || cf.Src != 2 {
				t.Fatalf("checkAMQ(%v) raised %v, want a *comm.CorruptFrameError from 2", tc.rec, cf)
			}
		})
	}
	rec := appendAMQ([]uint64{99}, 7, []graph.Vertex{1, 5, 9}, &AMQConfig{BitsPerKey: 8})[1:]
	if cf := corruptFrom(func() { checkAMQ(2, rec) }); cf != nil {
		t.Fatalf("a record appendAMQ built was rejected: %v", cf)
	}
}

// FuzzAMQRecord decodes random words as a filter record: checkAMQ must
// either reject it as a corrupt frame from its sender or accept a filter
// whose in-place view round-trips its header and words, and whose probes
// stay inside them.
func FuzzAMQRecord(f *testing.F) {
	bytesOf := func(words []uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	c := AMQConfig{BitsPerKey: 8}
	f.Add(bytesOf(appendAMQ(nil, 7, []graph.Vertex{1, 5, 9}, &c)))
	f.Add(bytesOf(appendAMQ(nil, 1<<40, make([]graph.Vertex, 100), &c)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := make([]uint64, len(data)/8)
		for i := range rec {
			rec[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		if cf := corruptFrom(func() { checkAMQ(3, rec) }); cf != nil {
			if cf.Src != 3 {
				t.Fatalf("corrupt record blamed on %d, want 3", cf.Src)
			}
			return
		}
		// Accepted: a view writes the record's words in place, and a second
		// view of the same words reads the header and the write back.
		filter := slices.Clone(rec[2:])
		key := rec[0]
		fl, _ := amq.ViewBloom(filter)
		fl.Insert(key)
		fl2, err := amq.ViewBloom(filter)
		if err != nil {
			t.Fatalf("filter no longer views after an insert: %v", err)
		}
		again, fpr := fl2.MayContain(key), fl2.LoadFPR()
		if !slices.Equal(filter[:2], rec[2:4]) || !again {
			t.Fatalf("header %v → %v, inserted key found again: %v", rec[2:4], filter[:2], again)
		}
		if !(fpr >= 0 && fpr <= 1) {
			t.Fatalf("load FPR %v outside [0, 1]", fpr)
		}
	})
}

// BenchmarkApproxRecvSteadyState measures allocs/op of the receive of one
// parked filter record: view the filter in place, walk the ghost row's
// partners and their cut lists, probe, and spread the LCC estimate over the
// positive rows. The positive-row scratch grows once, so the steady state
// must report zero allocations (CI allocation gate).
func BenchmarkApproxRecvSteadyState(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(10, 42))
	const p = 2
	pt := part.Uniform(uint64(g.NumVertices()), p)
	view := func(rank int) (*graph.LocalGraph, *graph.LocalOriented, *graph.LocalOriented) {
		lg := graph.BuildLocalCSR(pt, rank, g, 1)
		for i, gid := range lg.Ghosts() {
			lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
		}
		ori := graph.OrientLocalPar(lg, 1)
		return lg, ori, ori.ContractPar(1)
	}
	acfg := AMQConfig{BitsPerKey: 4}
	// PE 1's filters as its global stage builds them; at p = 2 every cut
	// neighbor is PE 0's.
	lg1, _, cut1 := view(1)
	var recs []recvRecord
	for r := 0; r < lg1.NLocal() && len(recs) < 64; r++ {
		if av := cut1.Out(int32(r)); len(av) >= 2 {
			rec := appendAMQ(nil, lg1.GID(int32(r)), av, &acfg)
			recs = append(recs, recvRecord{v: rec[0], list: rec[2:], kind: chAMQ})
		}
	}
	lg0, ori0, cut0 := view(0)
	state := newCountState(lg0, Config{P: p, LCC: true})
	state.useAMQ(&acfg, ori0)
	var positives uint64
	for _, r := range recs {
		positives += state.recvRecord(r, cut0) // grows the positive-row scratch
	}
	if positives == 0 {
		b.Fatal("no filter probe was positive; the benchmark is vacuous")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state.recvRecord(recs[i%len(recs)], cut0)
	}
}
