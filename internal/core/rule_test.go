package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// recvWorkOracle applies the heavy/light rule (wedgeRule) to the global graph
// g on the uniform partition into p PEs, and returns what every PE's
// receive-side meter (countState.recvWork, exported as
// comm.Metrics.RecvWorkWords) reads after a plain count with the surrogate
// dedup — DITRIC's when cut is false, CETRIC's when it is true. It shares no
// code with the engines but the orientation and the partition. The meter's
// charging rules:
//
//   - A PE is charged for the records it receives and for nothing else: the
//     local sweeps and every local probe are free. A row x with |A(x)| ≥ 2
//     ships one record [x, A(x)] to each other PE that holds at least one of
//     its partners under the rule; a row with |A(x)| < 2 ships nothing.
//   - A record with exactly one partner y on the receiver is one merge of the
//     two global-ID lists: |A(x)| + |A(y)|.
//   - A record with more partners is translated and stamped once, then
//     probed by each: the entries of A(x) that are rows on the receiver (its
//     locals, and its ghosts — vertices adjacent to one of its locals), plus
//     |A(y)| for every partner y.
//   - DITRIC's lists are the degree-oriented A(v) and d⁺(v) = |A(v)|.
//     CETRIC's are those of the cut graph: A(v) and N(v) keep only the
//     vertices owned by another PE than v, and d⁺ is the cut out-degree.
func recvWorkOracle(g *graph.Graph, p int, cut bool) []int64 {
	n := g.NumVertices()
	pt := part.Uniform(uint64(n), p)
	og := graph.Orient(g)
	owner := func(v graph.Vertex) int { return pt.Rank(v) }
	keep := func(v graph.Vertex, list []graph.Vertex) []graph.Vertex {
		if !cut {
			return list
		}
		var kept []graph.Vertex
		for _, u := range list {
			if owner(u) != owner(v) {
				kept = append(kept, u)
			}
		}
		return kept
	}
	out := make([][]graph.Vertex, n)
	nb := make([][]graph.Vertex, n)
	rowOn := make([]uint64, n) // bit q: the vertex is a row (local or ghost) on PE q
	for v := graph.Vertex(0); v < graph.Vertex(n); v++ {
		out[v] = keep(v, og.Out(v))
		nb[v] = keep(v, g.Neighbors(v))
		rowOn[v] |= 1 << owner(v)
		for _, u := range g.Neighbors(v) {
			rowOn[v] |= 1 << owner(u)
		}
	}
	work := make([]int64, p)
	for x := graph.Vertex(0); x < graph.Vertex(n); x++ {
		ax, dx := out[x], len(out[x])
		if dx < 2 {
			continue
		}
		partners := make(map[int][]graph.Vertex) // per receiving PE
		for _, y := range nb[x] {
			_, inA := slices.BinarySearch(ax, y)
			dy := len(out[y])
			var probes bool
			switch {
			case dx < heavyOutDegree:
				probes = inA && dy < heavyOutDegree
			case dy != dx:
				probes = dy > 0 && dy < dx
			default:
				probes = inA
			}
			if q := owner(y); probes && q != owner(x) {
				partners[q] = append(partners[q], y)
			}
		}
		for q, ys := range partners {
			if len(ys) == 1 {
				work[q] += int64(dx + len(out[ys[0]]))
				continue
			}
			for _, w := range ax {
				if rowOn[w]&(1<<q) != 0 {
					work[q]++
				}
			}
			for _, y := range ys {
				work[q] += int64(len(out[y]))
			}
		}
	}
	return work
}

// TestRecvWorkMatchesRuleOracle: DITRIC's and CETRIC's receive-side work,
// PE by PE, is what the rule applied to the global graph predicts
// (recvWorkOracle) — so the engines ship each wedge's list to the PE the rule
// names and probe it there with the partners the rule names, no more and no
// fewer. The rmat, rhg and web fixtures have no heavy row, so there the rule
// is the plain edge iterator's; gateGraph and an RMAT of 2^11 vertices have
// heavy rows for the gate to decide.
func TestRecvWorkMatchesRuleOracle(t *testing.T) {
	inputs := map[string]*graph.Graph{"rmat2^11": gen.RMAT(gen.DefaultRMAT(11, 5))}
	inputs["gate"], _ = gateGraph()
	for _, name := range []string{"rmat", "rhg", "web"} {
		fx, _ := testgraph.ByName(name)
		inputs[name] = fx.Build()
	}
	for _, name := range []string{"rmat2^11", "gate"} {
		og := graph.Orient(inputs[name])
		heavy := 0
		for v := 0; v < og.NumVertices(); v++ {
			if og.OutDegree(graph.Vertex(v)) >= heavyOutDegree {
				heavy++
			}
		}
		if heavy == 0 {
			t.Fatalf("%s has no heavy row; the oracle would not test the gate", name)
		}
	}
	for name, g := range inputs {
		for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
			for _, p := range []int{2, 3, 4, 7} {
				res, err := Run(algo, g, Config{P: p})
				if err != nil {
					t.Fatal(err)
				}
				want := recvWorkOracle(g, p, algo == AlgoCetric)
				for q, m := range res.PerPE {
					if m.RecvWorkWords != want[q] {
						t.Errorf("%s/%s p=%d PE %d: receive work %d words, the rule predicts %d",
							algo, name, p, q, m.RecvWorkWords, want[q])
					}
				}
			}
		}
	}
}

// gatePEs is the PE count gateGraph is laid out for.
const gatePEs = 3

// gateGraph is the fixture on which the rule's gate and its ties decide. It
// has 3·64 vertices for part.Uniform(192, 3). On PE 2 sits a clique TOP of
// 44 vertices, which every other vertex precedes. For every D ∈ {31, 32, 33}
// and both directions of the cut between PEs 0 and 1 it holds a gadget: an
// edge a–b, a on one PE and b on the other, with d⁺(a) = d⁺(b) = D in the
// graph and in its cut graph alike. A(a) is b and D−1 vertices of TOP, A(b)
// is D vertices of TOP, 24 of them shared with a, so the tie closes 24
// type-3 triangles. A light vertex c on PE 2, c ≺ a ≺ b, is adjacent to a,
// b and two vertices of A(a): it probes heavy A(a) across the cut. No other
// partner of a sits on b's PE, so a's record reaches b only through the
// tie. gadgets returns the (a, b, D) triples.
func gateGraph() (g *graph.Graph, gadgets [][3]int) {
	const block, k, shared = 64, 44, 24
	top := func(i int) graph.Vertex { return graph.Vertex(2*block + i%k) }
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.Edge{U: top(i), V: top(j)})
		}
	}
	i := 0
	for _, d := range []int{31, 32, 33} {
		for side := 0; side < 2; side++ {
			a := graph.Vertex(side*block + 2*i)
			b := graph.Vertex((1-side)*block + 2*i + 1)
			c := graph.Vertex(2*block + k + i)
			off := 7 * i // each gadget leans on its own stretch of TOP
			edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: c, V: a}, graph.Edge{U: c, V: b},
				graph.Edge{U: c, V: top(off)}, graph.Edge{U: c, V: top(off + 1)})
			for j := 0; j < shared; j++ {
				edges = append(edges, graph.Edge{U: a, V: top(off + j)}, graph.Edge{U: b, V: top(off + j)})
			}
			for j := 0; j < d-1-shared; j++ {
				edges = append(edges, graph.Edge{U: a, V: top(off + shared + j)})
			}
			for j := 0; j < d-shared; j++ {
				edges = append(edges, graph.Edge{U: b, V: top(off + d - 1 + j)})
			}
			gadgets = append(gadgets, [3]int{int(a), int(b), d})
			i++
		}
	}
	return graph.FromEdges(gatePEs*block, edges), gadgets
}

// TestGateGraphTies pins gateGraph's layout: every gadget's a–b is a cut edge
// with a ≺ b and d⁺(a) = d⁺(b) = D, in the graph and in its cut graph.
func TestGateGraphTies(t *testing.T) {
	g, gadgets := gateGraph()
	og := graph.Orient(g)
	pt := part.Uniform(uint64(g.NumVertices()), gatePEs)
	cutOut := func(v graph.Vertex) int {
		d := 0
		for _, u := range og.Out(v) {
			if pt.Rank(u) != pt.Rank(v) {
				d++
			}
		}
		return d
	}
	for _, gd := range gadgets {
		a, b, d := graph.Vertex(gd[0]), graph.Vertex(gd[1]), gd[2]
		if _, ok := slices.BinarySearch(og.Out(a), b); !ok || pt.Rank(a) == pt.Rank(b) {
			t.Fatalf("gadget %v: a–b is not a cut edge with a ≺ b", gd)
		}
		if og.OutDegree(a) != d || og.OutDegree(b) != d || cutOut(a) != d || cutOut(b) != d {
			t.Fatalf("gadget %v: d⁺ %d, %d, cut d⁺ %d, %d; want all %d",
				gd, og.OutDegree(a), og.OutDegree(b), cutOut(a), cutOut(b), d)
		}
	}
}

// TestHeavyGateMatrix: on gateGraph, whose ties and gate sit across a cut,
// DITRIC and CETRIC count, enumerate and compute LCC exactly as the
// sequential oracles under every schedule (barriered, overlap) × threads
// {1, 2} × routing {direct, Indirect} × {surrogate, no-surrogate} ×
// δ ∈ {1, default}.
func TestHeavyGateMatrix(t *testing.T) {
	g, _ := gateGraph()
	wantCount, wantDeltas := SeqDeltas(g)
	want := make(map[[3]graph.Vertex]bool)
	SeqEnumerate(g, func(v, u, w graph.Vertex) { want[CanonTriangle(v, u, w)] = true })
	for _, algo := range []Algorithm{AlgoDiTric, AlgoCetric} {
		for _, overlap := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				for _, indirect := range []bool{false, true} {
					for _, noSurrogate := range []bool{false, true} {
						for _, delta := range []int{1, 0} {
							cfg := Config{P: gatePEs, Overlap: overlap, Threads: threads, Indirect: indirect,
								noSurrogate: noSurrogate, Threshold: delta}
							name := fmt.Sprintf("%s/overlap=%v/threads=%d/indirect=%v/nosurrogate=%v/delta=%d",
								algo, overlap, threads, indirect, noSurrogate, delta)
							checkGateRun(t, name, algo, g, cfg, wantCount, wantDeltas, want)
						}
					}
				}
			}
		}
	}
}

// checkGateRun runs cfg twice — a plain count, then with LCC and Collect —
// and checks the count, every Δ and the triangle set against the oracles.
func checkGateRun(t *testing.T, name string, algo Algorithm, g *graph.Graph, cfg Config,
	wantCount uint64, wantDeltas []uint64, want map[[3]graph.Vertex]bool) {
	t.Helper()
	res, err := Run(algo, g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Count != wantCount {
		t.Fatalf("%s: count %d, want %d", name, res.Count, wantCount)
	}
	cfg.LCC, cfg.Collect = true, true
	res, err = Run(algo, g, cfg)
	if err != nil {
		t.Fatalf("%s LCC: %v", name, err)
	}
	if res.Count != wantCount || len(res.Triangles) != len(want) {
		t.Fatalf("%s LCC: count %d, %d triangles collected, want %d", name, res.Count, len(res.Triangles), wantCount)
	}
	for v, d := range wantDeltas {
		if res.Deltas[v] != d {
			t.Fatalf("%s LCC: Δ(%d) = %d, want %d", name, v, res.Deltas[v], d)
		}
	}
	seen := make(map[[3]graph.Vertex]bool, len(want))
	for _, tri := range res.Triangles {
		if seen[tri] || !want[tri] {
			t.Fatalf("%s: triangle %v collected twice or not a triangle", name, tri)
		}
		seen[tri] = true
	}
}
