package gen

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
)

// RHGConfig parameterizes the random hyperbolic graph model (Krioukov et
// al.), KAGEN's RHG: n points on a hyperbolic disk of radius R, radial
// density α·sinh(αr)/(cosh(αR)−1) with α = (γ−1)/2, an edge between points
// at hyperbolic distance ≤ R. The result has a power-law degree distribution
// with exponent γ and high clustering.
type RHGConfig struct {
	N         int
	AvgDegree float64 // target average degree (paper: 32, i.e. 16·n edges)
	Gamma     float64 // power-law exponent (paper: 2.8)
	Seed      uint64
}

// RHG generates a random hyperbolic graph. Neighbor search uses radial bands
// with per-band angular windows, the standard technique of fast hyperbolic
// generators, so it runs in roughly O(n log n + m). Sampling, the relabel,
// the bands and the search run on the workers. Each vertex searches for its
// neighbours above it only, each band's from its first member above it, so
// the same candidates meet the same float operations as a search of the
// whole window that drops the rest; the vertex's neighbours, sorted, are its
// run for graph.FromRuns.
//
// Vertex IDs are assigned in angular order, so a contiguous 1D partition
// corresponds to a disk sector: cuts are small and CETRIC-friendly, while the
// power-law hubs still create skew — the combination the paper's RHG
// experiments probe.
func RHG(cfg RHGConfig) *graph.Graph {
	n := cfg.N
	if n == 0 || cfg.AvgDegree <= 0 {
		// No target degree leaves no radius to solve for: the edgeless graph.
		return graph.FromEdges(n, nil)
	}
	alpha := (cfg.Gamma - 1) / 2
	// Average degree ≈ (2/π)·ξ²·n·e^{−R/2} with ξ = α/(α−1/2) for α > 1/2
	// (Krioukov et al.). Solve for R given the target degree.
	xi := alpha / (alpha - 0.5)
	nu := cfg.AvgDegree * math.Pi / (2 * xi * xi)
	R := 2 * math.Log(float64(n)/nu)
	if R <= 0 {
		R = 1
	}

	// Sample polar coordinates deterministically per vertex.
	theta := make([]float64, n)
	rad := make([]float64, n)
	coshR := math.Cosh(R)
	coshAlphaR := math.Cosh(alpha * R)
	graph.ParallelFor(workers(), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			theta[i] = 2 * math.Pi * HashFloat64(cfg.Seed, uint64(2*i))
			// Inverse CDF of the radial density: F(r) = (cosh(αr)−1)/(cosh(αR)−1).
			u := HashFloat64(cfg.Seed, uint64(2*i+1))
			rad[i] = math.Acosh(1+u*(coshAlphaR-1)) / alpha
		}
	})
	// Relabel by angle for ID locality: vertex v is point ids[v].
	ids := angleOrder(theta)

	// Radial bands: band b spans radius [b·R/B, (b+1)·R/B). Vertices are
	// numbered by angle, so each band lists its members in ascending order
	// of both ID and angle, with its angle and the cosh and sinh of its
	// radius; the scan reads u's own there too. A chunk of vertices counts
	// its members per band, and a prefix sum over the chunks places each
	// chunk in every band.
	const B = 16
	bandOf := func(r float64) int {
		b := int(r / (R / B))
		if b >= B {
			b = B - 1
		}
		return b
	}
	band := make([]uint8, n)
	at := inOrder(n, func(_, lo, hi int) (count [B]int) {
		for v := lo; v < hi; v++ {
			band[v] = uint8(bandOf(rad[ids[v]]))
			count[band[v]]++
		}
		return count
	})
	var size [B]int
	for c := range at {
		for b := range size {
			at[c][b], size[b] = size[b], size[b]+at[c][b]
		}
	}
	var bands [B]rhgBand
	for b := range bands {
		bands[b] = rhgBand{
			id: make([]int, size[b]), th: make([]float64, size[b]),
			cosh: make([]float64, size[b]), sinh: make([]float64, size[b]),
		}
	}
	inOrder(n, func(_, lo, hi int) struct{} {
		next := &at[lo/genChunk]
		for v := lo; v < hi; v++ {
			i, bd, k := ids[v], &bands[band[v]], next[band[v]]
			bd.id[k], bd.th[k], bd.cosh[k], bd.sinh[k] = v, theta[i], math.Cosh(rad[i]), math.Sinh(rad[i])
			next[band[v]]++
		}
		return struct{}{}
	})

	// The inner radius of band b and its cosh and sinh, once per band.
	var coshBand, sinhBand [B]float64
	for b := range coshBand {
		bandMin := float64(b) * R / B
		coshBand[b] = math.Cosh(bandMin)
		sinhBand[b] = math.Sinh(bandMin)
	}

	return scanVertices(n, func(lo int) func(u int, nbrs []graph.Vertex) []graph.Vertex {
		// above[b] is the first member of band b above the vertex scanned
		// last: members ascend by ID, so it only moves forward.
		var above [B]int
		for b := range bands {
			above[b], _ = slices.BinarySearch(bands[b].id, lo)
		}
		return func(u int, nbrs []graph.Vertex) []graph.Vertex {
			// u is the first member of its own band not passed yet.
			own := &bands[band[u]]
			for own.id[above[band[u]]] < u {
				above[band[u]]++
			}
			i := above[band[u]]
			thU, coshU, sinhU := own.th[i], own.cosh[i], own.sinh[i]
			k := len(nbrs)
			// scan appends the members of bd from index i on, up to angle
			// end, within distance R of u.
			scan := func(bd *rhgBand, i int, end float64) {
				for ; i < len(bd.id) && bd.th[i] <= end; i++ {
					if hypDistLE(coshU, sinhU, bd.cosh[i], bd.sinh[i], thU, bd.th[i], coshR) {
						nbrs = append(nbrs, graph.Vertex(bd.id[i]))
					}
				}
			}
			for b := range bands {
				bd := &bands[b]
				if len(bd.id) == 0 {
					continue
				}
				// Maximum angular separation at which a point at the band's
				// inner radius could still be within hyperbolic distance R
				// of u.
				dTheta := maxAngle(coshU, sinhU, coshBand[b], sinhBand[b], coshR)
				if dTheta <= 0 {
					continue
				}
				// Only members above u count, and they lie at u's angle or
				// after it: the scan starts at the first of them.
				for above[b] < len(bd.id) && bd.id[above[b]] <= u {
					above[b]++
				}
				lo, hi := thU-dTheta, thU+dTheta
				switch {
				case dTheta >= math.Pi:
					// Whole band is in range of the angular test; check all.
					scan(bd, above[b], math.Inf(1))
				case lo < 0:
					// The window wraps below 0: its part at [lo+2π, 2π] lies
					// after u's angle too.
					scan(bd, above[b], hi)
					wrap, _ := slices.BinarySearch(bd.th, lo+2*math.Pi)
					scan(bd, wrap, 2*math.Pi)
				default:
					// A window that wraps past 2π continues at [0, hi−2π],
					// before u's angle, where no member is above u.
					scan(bd, above[b], min(hi, 2*math.Pi))
				}
			}
			// Each band's members ascend, but the bands interleave.
			slices.Sort(nbrs[k:])
			return nbrs
		}
	})
}

// rhgBand is one radial band's members in ascending order of ID (and so
// angle), with their angles and the cosh and sinh of their radii side by
// side.
type rhgBand struct {
	id             []int
	th, cosh, sinh []float64
}

// angleOrder returns the points' indices in ascending order of their
// angles, all in [0, 2π]. The angles are uniform, so a counting sort into
// n buckets of equal width leaves about one point per bucket, and the
// workers sort the buckets. Where no two angles tie that order is unique;
// two equal angles, which share a bucket, leave their order to the sort, so
// then the order is sort.Slice's, as RHG has always taken it.
func angleOrder(theta []float64) []int {
	n := len(theta)
	scale := float64(n) / (2 * math.Pi)
	bucket := func(t float64) int { return min(int(t*scale), n-1) }
	start := make([]int, n+1)
	for _, t := range theta {
		start[bucket(t)+1]++
	}
	for b := 0; b < n; b++ {
		start[b+1] += start[b]
	}
	// ids[start[b]:start[b+1]] is bucket b, in index order until sorted.
	ids := make([]int, n)
	next := slices.Clone(start[:n])
	for i, t := range theta {
		b := bucket(t)
		ids[next[b]] = i
		next[b]++
	}
	var tie atomic.Bool
	graph.ParallelFor(workers(), n, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			bk := ids[start[b]:start[b+1]]
			if len(bk) < 2 {
				continue
			}
			slices.SortFunc(bk, func(i, j int) int { return cmp.Compare(theta[i], theta[j]) })
			for k := 1; k < len(bk); k++ {
				if theta[bk[k]] == theta[bk[k-1]] {
					tie.Store(true)
				}
			}
		}
	})
	if tie.Load() {
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool { return theta[ids[a]] < theta[ids[b]] })
	}
	return ids
}

// maxAngle returns the largest Δθ at which a point with radius bandMin can be
// within hyperbolic distance R (given as cosh R) of a point with the given
// cosh/sinh radius, bandMin given by its cosh and sinh; returns π if every
// angle qualifies.
func maxAngle(coshRu, sinhRu, coshB, sinhB, coshR float64) float64 {
	if sinhRu*sinhB == 0 {
		return math.Pi
	}
	c := (coshRu*coshB - coshR) / (sinhRu * sinhB)
	if c <= -1 {
		return math.Pi
	}
	if c >= 1 {
		return 0
	}
	return math.Acos(c)
}

// hypDistLE reports whether the hyperbolic distance between two points is at
// most R, using cosh d = cosh r1 cosh r2 − sinh r1 sinh r2 cos Δθ.
func hypDistLE(c1, s1, c2, s2, t1, t2, coshR float64) bool {
	dt := math.Abs(t1 - t2)
	if dt > math.Pi {
		dt = 2*math.Pi - dt
	}
	coshD := c1*c2 - s1*s2*math.Cos(dt)
	return coshD <= coshR
}
