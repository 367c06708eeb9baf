package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
	"repro/internal/transport"
)

// testGraphs returns the shared fixture catalog: a diverse set of instances
// with precomputed exact triangle counts, spanning every structural regime
// the algorithms care about (see internal/testgraph).
func testGraphs() map[string]*graph.Graph {
	return testgraph.Map()
}

var testPEs = []int{1, 2, 3, 4, 7, 8}

// variant labels a test cell: an engine plus the config bits the paper's
// other algorithm names stand for — ditric2 and cetric2 are DITRIC and
// CETRIC with Indirect, noagg is DITRIC with δ = 1.
type variant struct {
	name     string
	algo     Algorithm
	indirect bool
	noAgg    bool
}

var (
	vDiTric  = variant{name: "ditric", algo: AlgoDiTric}
	vDiTric2 = variant{name: "ditric2", algo: AlgoDiTric, indirect: true}
	vCetric  = variant{name: "cetric", algo: AlgoCetric}
	vCetric2 = variant{name: "cetric2", algo: AlgoCetric, indirect: true}
	vNoAgg   = variant{name: "noagg", algo: AlgoDiTric, noAgg: true}
	vTriC    = variant{name: "tric", algo: AlgoTriC}
	vTK2D    = variant{name: "tk2d", algo: AlgoTK2D}
)

// paperVariants are the paper's algorithms and its TriC baseline, in order.
var paperVariants = []variant{vDiTric, vDiTric2, vCetric, vCetric2, vTriC}

func (v variant) String() string { return v.name }

// config sets the variant's bits on cfg.
func (v variant) config(cfg Config) Config {
	cfg.Indirect = cfg.Indirect || v.indirect
	if v.noAgg {
		cfg.Threshold = 1
	}
	return cfg
}

// run is Run under the variant's bits.
func (v variant) run(g *graph.Graph, cfg Config) (*Result, error) {
	return Run(v.algo, g, v.config(cfg))
}

func TestDistributedAlgorithmsMatchSequential(t *testing.T) {
	for _, fix := range testgraph.All {
		name, g, want := fix.Name, fix.Build(), fix.Triangles
		if got := SeqCount(g); got != want {
			t.Fatalf("SeqCount(%s) = %d, fixture says %d", name, got, want)
		}
		for _, algo := range paperVariants {
			for _, p := range testPEs {
				t.Run(fmt.Sprintf("%s/%s/p=%d", algo, name, p), func(t *testing.T) {
					res, err := algo.run(g, Config{P: p})
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != want {
						t.Fatalf("%s on %s with p=%d: count = %d, want %d", algo, name, p, res.Count, want)
					}
				})
			}
		}
	}
}

func TestCetricTypeCountsSumToTotal(t *testing.T) {
	for name, g := range testGraphs() {
		want := SeqCount(g)
		for _, p := range []int{1, 3, 4, 8} {
			res, err := Run(AlgoCetric, g, Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			sum := res.TypeCounts[0] + res.TypeCounts[1] + res.TypeCounts[2]
			if sum != want {
				t.Errorf("%s p=%d: type counts %v sum to %d, want %d", name, p, res.TypeCounts, sum, want)
			}
			if p == 1 && (res.TypeCounts[1] != 0 || res.TypeCounts[2] != 0) {
				t.Errorf("%s p=1: expected only type-1 triangles, got %v", name, res.TypeCounts)
			}
		}
	}
}

func TestDistributedLCCMatchesSequential(t *testing.T) {
	for name, g := range testGraphs() {
		wantCount, wantDeltas := SeqDeltas(g)
		for _, algo := range []variant{vDiTric, vDiTric2, vCetric, vCetric2} {
			for _, p := range []int{1, 3, 4, 8} {
				res, err := algo.run(g, Config{P: p, LCC: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != wantCount {
					t.Fatalf("%s/%s p=%d: count %d want %d", algo, name, p, res.Count, wantCount)
				}
				for v, want := range wantDeltas {
					if res.Deltas[v] != want {
						t.Fatalf("%s/%s p=%d: Δ(%d) = %d, want %d", algo, name, p, v, res.Deltas[v], want)
					}
				}
			}
		}
	}
}

func TestDistributedEnumerationMatchesSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 3))
	want := make(map[[3]graph.Vertex]bool)
	SeqEnumerate(g, func(v, u, w graph.Vertex) { want[CanonTriangle(v, u, w)] = true })
	for _, algo := range []variant{vDiTric, vCetric, vCetric2} {
		for _, p := range []int{2, 5} {
			res, err := algo.run(g, Config{P: p, Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Triangles) != len(want) {
				t.Fatalf("%s p=%d: %d triangles collected, want %d", algo, p, len(res.Triangles), len(want))
			}
			seen := make(map[[3]graph.Vertex]bool)
			for _, tri := range res.Triangles {
				if seen[tri] {
					t.Fatalf("%s p=%d: duplicate triangle %v", algo, p, tri)
				}
				seen[tri] = true
				if !want[tri] {
					t.Fatalf("%s p=%d: spurious triangle %v", algo, p, tri)
				}
			}
		}
	}
}

// TestDegreeExchangeRejectsHostileFrames: a degree request for a vertex the
// PE does not own, and a degree or out-degree reply that is shorter or
// longer than the request or names an impossible degree (an out-degree above
// the ghost's degree), are corrupt frames from the peer that sent them —
// never an index panic, and never a ghost degree left at −1 or wrapped from
// 2^64−1.
func TestDegreeExchangeRejectsHostileFrames(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(6, 3))
	n := uint64(g.NumVertices())
	pt := part.Uniform(n, 2)
	lg := graph.BuildLocalCSR(pt, 0, g, 1)
	ghosts := lg.Ghosts() // every ghost of PE 0 is owned by PE 1
	if len(ghosts) < 2 {
		t.Fatalf("fixture has %d ghosts on PE 0, need 2", len(ghosts))
	}
	degs := make([]uint64, len(ghosts))
	for k, gid := range ghosts {
		degs[k] = uint64(g.Degree(gid))
	}
	corrupt := func(what string, src int, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if cf, ok := r.(*comm.CorruptFrameError); !ok || cf.Src != src {
				t.Fatalf("%s: recovered %#v, want *comm.CorruptFrameError from %d", what, r, src)
			}
		}()
		fn()
	}
	corrupt("short reply", 1, func() { applyDegreeReply(lg, 1, ghosts, degs[:len(degs)-1]) })
	corrupt("long reply", 1, func() { applyDegreeReply(lg, 1, ghosts, append(slices.Clone(degs), 1)) })
	corrupt("unrequested reply", 1, func() { applyDegreeReply(lg, 1, nil, degs[:1]) })
	huge := slices.Clone(degs)
	huge[1] = ^uint64(0)
	corrupt("degree 2^64-1", 1, func() { applyDegreeReply(lg, 1, ghosts, huge) })
	huge[1] = n
	corrupt("degree n", 1, func() { applyDegreeReply(lg, 1, ghosts, huge) })
	corrupt("request for a ghost", 1, func() { ownedDegree(lg, 1, ghosts[0]) })
	corrupt("request past n", 1, func() { ownedDegree(lg, 1, n) })
	corrupt("request for 2^64-1", 1, func() { ownedDegree(lg, 1, ^uint64(0)) })

	applyDegreeReply(lg, 1, ghosts, degs)
	for _, gid := range ghosts {
		if row, _ := lg.GhostRow(gid); lg.Degree(row) != g.Degree(gid) {
			t.Fatalf("ghost %d: degree %d, want %d", gid, lg.Degree(row), g.Degree(gid))
		}
	}
	for v := lg.First; v < lg.Last; v++ {
		if got := ownedDegree(lg, 1, v); got != uint64(g.Degree(v)) {
			t.Fatalf("ownedDegree(%d) = %d, want %d", v, got, g.Degree(v))
		}
	}

	dplus := make([]int32, lg.Rows())
	corrupt("short out-degree reply", 1, func() { applyOutDegreeReply(lg, 1, ghosts, degs[:1], dplus) })
	corrupt("long out-degree reply", 1, func() { applyOutDegreeReply(lg, 1, ghosts, append(slices.Clone(degs), 0), dplus) })
	over := slices.Clone(degs)
	over[1]++
	corrupt("out-degree above degree", 1, func() { applyOutDegreeReply(lg, 1, ghosts, over, dplus) })
	over[1] = ^uint64(0)
	corrupt("out-degree 2^64-1", 1, func() { applyOutDegreeReply(lg, 1, ghosts, over, dplus) })
	applyOutDegreeReply(lg, 1, ghosts, degs, dplus)
	for k, gid := range ghosts {
		if row, _ := lg.GhostRow(gid); dplus[row] != int32(degs[k]) {
			t.Fatalf("ghost %d: d⁺ %d, want %d", gid, dplus[row], degs[k])
		}
	}
}

// tamperNet hands out endpoints of inner whose rank-0 side passes its first
// byte frame through tamper before sending it. Under DITRIC on two PEs that
// is rank 0's degree request, the first record of the run: a queue frame
// holding one chDegReq record.
type tamperNet struct {
	transport.Network
	tamper   func([]uint64) []uint64
	tampered atomic.Int32
}

func (n *tamperNet) Endpoint(rank int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(rank)
	if err != nil || rank != 0 {
		return ep, err
	}
	return tamperEndpoint{Endpoint: ep, n: n}, nil
}

type tamperEndpoint struct {
	transport.Endpoint
	n *tamperNet
}

// SendBytes decodes the frame's one record (tag, then the envelope
// finalDst, origSrc, channel and payload length as uvarints, then the
// payload in the channel's codec), tampers with its payload and re-encodes
// the frame.
func (e tamperEndpoint) SendBytes(dst int, b []byte) error {
	if !e.n.tampered.CompareAndSwap(0, 1) {
		return e.Endpoint.SendBytes(dst, b)
	}
	env := make([]uint64, 4)
	pos := 8
	for i := range env {
		v, k := binary.Uvarint(b[pos:])
		env[i], pos = v, pos+k
	}
	if env[2] != chDegReq || pos+int(env[3]) != len(b) {
		panic(fmt.Sprintf("rank 0's first frame is not one degree request: envelope %v, %d bytes", env, len(b)))
	}
	codec := channelCodecs[chDegReq]
	words, err := codec.AppendDecoded(nil, b[pos:])
	if err != nil {
		panic(err)
	}
	out := slices.Clone(b[:8])
	for _, v := range env[:3] {
		out = binary.AppendUvarint(out, v)
	}
	payload := codec.AppendEncoded(nil, e.n.tamper(words))
	out = append(binary.AppendUvarint(out, uint64(len(payload))), payload...)
	return e.Endpoint.SendBytes(dst, out)
}

// TestDegreeRequestRejectedEndToEnd: a degree request that names a vertex
// past n, or one its receiver does not own, fails the whole run as a
// corrupt frame blaming its sender — the direct table in
// TestDegreeExchangeRejectsHostileFrames, driven through Run over the wire.
func TestDegreeRequestRejectedEndToEnd(t *testing.T) {
	fx, _ := testgraph.ByName("gnm")
	g := fx.Build()
	n := uint64(g.NumVertices())
	for name, tamper := range map[string]func([]uint64) []uint64{
		// words[0] is the first requested ghost.
		"vertex n":         func(w []uint64) []uint64 { w[0] = n; return w },
		"vertex of rank 0": func(w []uint64) []uint64 { w[0] = 0; return w },
	} {
		t.Run(name, func(t *testing.T) {
			net := &tamperNet{Network: transport.NewChanNetwork(2), tamper: tamper}
			defer net.Close()
			_, err := Run(AlgoDiTric, g, Config{P: 2, Network: net})
			if net.tampered.Load() != 1 {
				t.Fatal("rank 0 sent no degree request to tamper with")
			}
			var re *dist.RunError
			var cf *comm.CorruptFrameError
			if !errors.As(err, &re) || re.Cause != dist.CauseCorrupt || !errors.As(err, &cf) || cf.Src != 0 {
				t.Fatalf("err = %v, want a corrupt-frame RunError blaming rank 0", err)
			}
		})
	}
}

// ghostsByOwner returns, per rank r and owner o of pt, how many distinct
// ghosts r holds of o: the length of r's degree request to o (0: none).
func ghostsByOwner(g *graph.Graph, pt *part.Partition) [][]int {
	counts := make([][]int, pt.P())
	for r := range counts {
		counts[r] = make([]int, pt.P())
	}
	for u := uint64(0); u < uint64(g.NumVertices()); u++ {
		o := pt.Rank(u)
		last := -1 // u's neighbours come in ID order, so their ranks ascend
		for _, v := range g.Neighbors(u) {
			if r := pt.Rank(v); r != o && r != last {
				counts[r][o]++
				last = r
			}
		}
	}
	return counts
}

// TestDegreeRoundsAreSparse: the ghost-degree exchange sends one request
// frame to each owner of a PE's ghosts and one reply frame back, and no
// frame to a PE that owns none of the sender's ghosts — so the degrees
// phase ships exactly 2 × Σ_r (distinct owners of r's ghosts) frames, not
// the 2·p(p − 1) of a dense exchange.
func TestDegreeRoundsAreSparse(t *testing.T) {
	const p = 16
	fx, _ := testgraph.ByName("rgg")
	g := fx.Build()
	var owners int64
	for _, row := range ghostsByOwner(g, part.Uniform(uint64(g.NumVertices()), p)) {
		for _, k := range row {
			if k > 0 {
				owners++
			}
		}
	}
	if owners >= p*(p-1) {
		t.Fatalf("every PE holds ghosts of every other (%d pairs): the fixture cannot tell sparse from dense", owners)
	}
	for _, algo := range []Algorithm{AlgoCetric, AlgoDiTric} {
		res, err := Run(algo, g, Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != fx.Triangles {
			t.Fatalf("%s: count %d, want %d", algo, res.Count, fx.Triangles)
		}
		if got := res.PhaseComm[PhaseDegrees].TotalFrames; got != 2*owners {
			t.Errorf("%s: the degrees phase sent %d frames, want 2 × %d (owner, requester) pairs", algo, got, owners)
		}
	}
}

func TestNonUniformPartitions(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 21))
	want := SeqCount(g)
	for _, reverse := range []bool{false, true} {
		pt := skewedPartition(uint64(g.NumVertices()), 5, reverse)
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric, AlgoTriC} {
			res, err := Run(algo, g, Config{P: 5, Partition: pt})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s with skewed partition (reverse=%v): %d, want %d", algo, reverse, res.Count, want)
			}
		}
	}
}

func TestHybridThreadsMatchSequential(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 31))
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric, vDiTric2, vCetric} {
		for _, threads := range []int{2, 4} {
			res, err := algo.run(g, Config{P: 4, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("%s threads=%d: %d, want %d", algo, threads, res.Count, want)
			}
		}
	}
}

func TestHybridLCC(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 37))
	_, wantDeltas := SeqDeltas(g)
	res, err := Run(AlgoCetric, g, Config{P: 3, Threads: 4, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("hybrid LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}

func TestTinyThresholdStillCorrect(t *testing.T) {
	// Aggressive flushing (δ=1 word) must not change results, only costs.
	g := gen.GNM(150, 900, 77)
	want := SeqCount(g)
	for _, algo := range []variant{vDiTric, vDiTric2, vCetric2} {
		res, err := algo.run(g, Config{P: 7, Threshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("%s δ=1: %d, want %d", algo, res.Count, want)
		}
	}
}

func TestNoSurrogateHybrid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 67))
	want := SeqCount(g)
	res, err := Run(AlgoDiTric, g, Config{P: 4, Threads: 3, noSurrogate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("hybrid no-surrogate: %d, want %d", res.Count, want)
	}
}

func TestNoSurrogateLCC(t *testing.T) {
	g := gen.GNM(300, 2400, 71)
	_, wantDeltas := SeqDeltas(g)
	res, err := Run(AlgoCetric, g, Config{P: 5, noSurrogate: true, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range wantDeltas {
		if res.Deltas[v] != want {
			t.Fatalf("no-surrogate LCC: Δ(%d) = %d, want %d", v, res.Deltas[v], want)
		}
	}
}
