package graph_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/testgraph"
)

// Equivalence property tests pinning the parallel preprocessing builders
// against the sequential seed semantics, across every shared fixture and
// Threads ∈ {1, 2, 3, 8}. The oracles are deliberately implementation-free:
// the append-based scatter and the map-based ghost discovery replicate the
// seed algorithms, and local neighborhoods are checked against the global
// graph itself. Run under -race (CI does), these also exercise the
// chunk-stealing workers for data races.

var equivThreads = []int{1, 2, 3, 8}

// scatterOracle is the seed ScatterEdges: append with two rank searches.
func scatterOracle(pt *part.Partition, edges []graph.Edge) [][]graph.Edge {
	out := make([][]graph.Edge, pt.P())
	for _, e := range edges {
		ru, rv := pt.Rank(e.U), pt.Rank(e.V)
		out[ru] = append(out[ru], e)
		if rv != ru {
			out[rv] = append(out[rv], e)
		}
	}
	return out
}

// ghostOracle is the seed map-based ghost discovery.
func ghostOracle(pt *part.Partition, rank int, edges []graph.Edge) []graph.Vertex {
	lo, hi := pt.Range(rank)
	seen := make(map[graph.Vertex]bool)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U < lo || e.U >= hi {
			seen[e.U] = true
		}
		if e.V < lo || e.V >= hi {
			seen[e.V] = true
		}
	}
	out := make([]graph.Vertex, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

func setGhostDegrees(lg *graph.LocalGraph, g *graph.Graph) {
	for i, gid := range lg.Ghosts() {
		lg.SetGhostDegree(int32(lg.NLocal()+i), g.Degree(gid))
	}
}

// rowIDs maps row r's neighbor rows back to global IDs, in their stored
// (ID) order.
func rowIDs(lg *graph.LocalGraph, r int32) []graph.Vertex {
	var ids []graph.Vertex
	for _, xr := range lg.RowNeighborRows(r) {
		ids = append(ids, lg.GID(int32(xr)))
	}
	return ids
}

func equalLocal(t *testing.T, want, got *graph.LocalGraph) {
	t.Helper()
	if want.NLocal() != got.NLocal() || want.NGhost() != got.NGhost() {
		t.Fatalf("shape mismatch: locals %d/%d ghosts %d/%d",
			want.NLocal(), got.NLocal(), want.NGhost(), got.NGhost())
	}
	if !slices.Equal(want.Ghosts(), got.Ghosts()) {
		t.Fatalf("ghost IDs differ")
	}
	for r := 0; r < want.Rows(); r++ {
		if want.GID(int32(r)) != got.GID(int32(r)) {
			t.Fatalf("row %d ID differs", r)
		}
		if !slices.Equal(want.RowNeighborRows(int32(r)), got.RowNeighborRows(int32(r))) {
			t.Fatalf("row %d row-translated adjacency differs", r)
		}
		if want.Degree(int32(r)) != got.Degree(int32(r)) {
			t.Fatalf("row %d degree differs: %d vs %d", r, want.Degree(int32(r)), got.Degree(int32(r)))
		}
	}
}

// equalOriented compares two orientations row by row: OutRows always, Out
// when ids is set (the orientation keeps it).
func equalOriented(t *testing.T, name string, want, got *graph.LocalOriented, ids bool) {
	t.Helper()
	for r := 0; r < want.L.Rows(); r++ {
		if ids && !slices.Equal(want.Out(int32(r)), got.Out(int32(r))) {
			t.Fatalf("%s: row %d A-list differs", name, r)
		}
		if !slices.Equal(want.OutRows(int32(r)), got.OutRows(int32(r))) {
			t.Fatalf("%s: row %d row-space A-list differs", name, r)
		}
	}
}

func TestParallelPreprocessEquivalence(t *testing.T) {
	for _, fix := range testgraph.All {
		t.Run(fix.Name, func(t *testing.T) {
			g := fix.Build()
			edges := g.Edges()
			for _, p := range []int{1, 4} {
				pt := part.Uniform(uint64(g.NumVertices()), p)
				want := scatterOracle(pt, edges)
				for _, th := range equivThreads {
					got := graph.ScatterEdgesPar(pt, edges, th)
					if len(got) != len(want) {
						t.Fatalf("p=%d threads=%d: scatter length %d, want %d", p, th, len(got), len(want))
					}
					for pe := range want {
						if !slices.Equal(got[pe], want[pe]) {
							t.Fatalf("p=%d threads=%d: scatter differs on PE %d", p, th, pe)
						}
					}
				}
				for rank := 0; rank < p; rank++ {
					base := graph.BuildLocal(pt, rank, want[rank])
					if !slices.Equal(base.Ghosts(), ghostOracle(pt, rank, want[rank])) {
						t.Fatalf("p=%d rank=%d: sort-based ghost discovery differs from map oracle", p, rank)
					}
					// Ground truth: local rows see their full neighborhoods,
					// and every row's translation matches the binary-search
					// oracle entry for entry.
					for r := 0; r < base.NLocal(); r++ {
						if !slices.Equal(rowIDs(base, int32(r)), g.Neighbors(base.GID(int32(r)))) {
							t.Fatalf("p=%d rank=%d row %d: neighborhood differs from global graph", p, rank, r)
						}
					}
					for r := 0; r < base.Rows(); r++ {
						rows := base.RowNeighborRows(int32(r))
						for k, x := range rowIDs(base, int32(r)) {
							if want, ok := oracleRow(base, x); !ok || int64(rows[k]) != int64(want) {
								t.Fatalf("p=%d rank=%d row %d: entry %d translated to row %d, oracle (%d,%v)", p, rank, r, x, rows[k], want, ok)
							}
						}
					}
					setGhostDegrees(base, g)
					baseOri := graph.OrientLocalPar(base, 1)
					baseOnly := graph.OrientLocalOnlyPar(base, 1)
					baseID := graph.OrientLocalByIDPar(base, 1)
					baseCut := baseOri.ContractPar(1)
					baseOri.BuildHubs(1) // force bitmaps everywhere they fit
					for _, th := range equivThreads[1:] {
						lg := graph.BuildLocalPar(pt, rank, want[rank], th)
						setGhostDegrees(lg, g) // base already has its ghost degrees
						equalLocal(t, base, lg)
						ori := graph.OrientLocalPar(lg, th)
						equalOriented(t, "orient", baseOri, ori, false)
						equalOriented(t, "orient-local-only", baseOnly, graph.OrientLocalOnlyPar(lg, th), true)
						equalOriented(t, "orient-by-id", baseID, graph.OrientLocalByIDPar(lg, th), true)
						cut := ori.ContractPar(th)
						equalOriented(t, "contract", baseCut, cut, true)
						ori.BuildHubsPar(1, th)
						if ori.NumHubs() != baseOri.NumHubs() {
							t.Fatalf("threads=%d: hub count %d, want %d", th, ori.NumHubs(), baseOri.NumHubs())
						}
						for r := 0; r < lg.Rows(); r++ {
							if !slices.Equal(baseOri.HubBitset(int32(r)), ori.HubBitset(int32(r))) {
								t.Fatalf("threads=%d: hub bitmap of row %d differs", th, r)
							}
						}
					}
				}
			}
		})
	}
}

// TestBuildLocalParForeignEdgePanics pins the panic contract on the
// parallel path: a worker detecting an edge with no local endpoint must
// re-raise on the caller, not crash the process.
func TestBuildLocalParForeignEdgePanics(t *testing.T) {
	pt := part.Uniform(16, 2)
	edges := make([]graph.Edge, 2048)
	for i := range edges {
		edges[i] = graph.Edge{U: uint64(i % 8), V: uint64((i + 1) % 8)}
	}
	edges[1500] = graph.Edge{U: 9, V: 10} // both endpoints on PE 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign edge")
		}
	}()
	graph.BuildLocalPar(pt, 0, edges, 4)
}

// ghostDiscoverySeeds is FuzzGhostDiscovery's seed corpus: an empty graph,
// two sparse cuts (the hash layout of the ghost index) and a clique on 12
// vertices less the edges {0,8} and {0,9}, whose cut entries outnumber the
// vertices (the dense layout) and whose ghosts first appear out of ID order
// (10 and 11 in row 0, then 8 and 9). TestGhostDiscoverySeedLayouts checks
// that the seeds reach both layouts.
var ghostDiscoverySeeds = []struct {
	data []byte
	n    uint16
}{
	{[]byte{}, 8},
	{[]byte{0, 0, 1, 0, 1, 0, 2, 0, 7, 0, 9, 0}, 10},
	{[]byte{3, 0, 3, 0, 5, 0, 200, 0, 5, 0, 201, 0}, 16},
	{cliqueEdgeBytes(12, [2]int{0, 8}, [2]int{0, 9}), 12},
}

// cliqueEdgeBytes encodes the complete graph on n vertices, less the edges
// {u, v} (u < v) listed in drop, as FuzzGhostDiscovery's 16-bit endpoint
// pairs.
func cliqueEdgeBytes(n int, drop ...[2]int) []byte {
	var data []byte
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if slices.Contains(drop, [2]int{u, v}) {
				continue
			}
			data = binary.LittleEndian.AppendUint16(data, uint16(u))
			data = binary.LittleEndian.AppendUint16(data, uint16(v))
		}
	}
	return data
}

// FuzzGhostDiscovery drives the row-slab builder's ghost machinery over
// arbitrary edge streams, at one and several workers, through both of its
// one-shot front ends: BuildLocalPar on the raw stream (self-loops,
// duplicates and both orientations included) and BuildLocalCSR on
// FromEdges of it. Each view must match the map oracle of slab_test.go
// entry for entry — ghosts, rows, translation, degrees — and its ghost
// index the binary-search oracle (requireGhostIndex), in whichever layout
// the builder took. Edge endpoints are decoded from the fuzz payload as
// 16-bit pairs; edges with no endpoint in the local range are withheld from
// BuildLocalPar (those panic by contract, which this target is not probing)
// but stay in the graph.
func FuzzGhostDiscovery(f *testing.F) {
	for _, sd := range ghostDiscoverySeeds {
		f.Add(sd.data, sd.n)
	}
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) { checkGhostDiscovery(t, data, nRaw) })
}

// checkGhostDiscovery is FuzzGhostDiscovery's body. It returns the number of
// views built with ghosts in the dense and in the hash layout.
func checkGhostDiscovery(t *testing.T, data []byte, nRaw uint16) (dense, hash int) {
	n := uint64(nRaw%253) + 3
	pt, err := part.New([]uint64{0, n/2 + 1, n}) // PE 0 of a 2-ish split
	if err != nil {
		t.Fatal(err)
	}
	_, last := pt.Range(0)
	var all, edges []graph.Edge
	for i := 0; i+3 < len(data); i += 4 {
		u := uint64(binary.LittleEndian.Uint16(data[i:])) % n
		v := uint64(binary.LittleEndian.Uint16(data[i+2:])) % n
		all = append(all, graph.Edge{U: u, V: v})
		if u < last || v < last {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.FromEdges(int(n), all)
	want := naiveLocal(pt, 0, all)
	if !slices.Equal(want.ghosts, ghostOracle(pt, 0, edges)) {
		t.Fatalf("oracles disagree: %v vs %v", want.ghosts, ghostOracle(pt, 0, edges))
	}
	for _, threads := range []int{1, 3} {
		for name, lg := range map[string]*graph.LocalGraph{
			"edges": graph.BuildLocalPar(pt, 0, edges, threads),
			"csr":   graph.BuildLocalCSR(pt, 0, g, threads),
		} {
			tag := fmt.Sprintf("%s threads=%d", name, threads)
			requireMatchesNaive(t, tag, lg, want)
			requireGhostIndex(t, tag, lg)
			switch {
			case lg.NGhost() == 0:
			case lg.DenseGhostIndex():
				dense++
			default:
				hash++
			}
		}
	}
	return dense, hash
}

// TestGhostDiscoverySeedLayouts runs FuzzGhostDiscovery's seeds and checks
// that they reach both layouts of the ghost index.
func TestGhostDiscoverySeedLayouts(t *testing.T) {
	dense, hash := 0, 0
	for _, sd := range ghostDiscoverySeeds {
		d, h := checkGhostDiscovery(t, sd.data, sd.n)
		dense, hash = dense+d, hash+h
	}
	if dense == 0 || hash == 0 {
		t.Fatalf("the seeds built %d dense and %d hash ghost indexes; they must reach both layouts", dense, hash)
	}
}
