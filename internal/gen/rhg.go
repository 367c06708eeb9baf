package gen

import (
	"math"
	"sort"

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
// generators, so it runs in roughly O(n log n + m).
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
	for i := 0; i < n; i++ {
		theta[i] = 2 * math.Pi * HashFloat64(cfg.Seed, uint64(2*i))
		// Inverse CDF of the radial density: F(r) = (cosh(αr)−1)/(cosh(αR)−1).
		u := HashFloat64(cfg.Seed, uint64(2*i+1))
		rad[i] = math.Acosh(1+u*(coshAlphaR-1)) / alpha
	}
	// Relabel by angle for ID locality.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return theta[ids[a]] < theta[ids[b]] })
	th := make([]float64, n)
	rd := make([]float64, n)
	for newID, oldID := range ids {
		th[newID] = theta[oldID]
		rd[newID] = rad[oldID]
	}

	// Radial bands: band b spans radius [b·R/B, (b+1)·R/B). Points are already
	// sorted by angle, so each band keeps a sorted angle index.
	const B = 16
	bandOf := func(r float64) int {
		b := int(r / (R / B))
		if b >= B {
			b = B - 1
		}
		return b
	}
	bandIdx := make([][]int, B) // vertex indices per band, ascending angle
	for v := 0; v < n; v++ {
		b := bandOf(rd[v])
		bandIdx[b] = append(bandIdx[b], v)
	}

	coshRad := make([]float64, n)
	sinhRad := make([]float64, n)
	for v := 0; v < n; v++ {
		coshRad[v] = math.Cosh(rd[v])
		sinhRad[v] = math.Sinh(rd[v])
	}

	// The inner radius of band b and its cosh and sinh, once per band.
	var coshBand, sinhBand [B]float64
	for b := range coshBand {
		bandMin := float64(b) * R / B
		coshBand[b] = math.Cosh(bandMin)
		sinhBand[b] = math.Sinh(bandMin)
	}

	edges := scanVertices(n, func(u int, nbrs []graph.Vertex) []graph.Vertex {
		for b := 0; b < B; b++ {
			members := bandIdx[b]
			if len(members) == 0 {
				continue
			}
			// Maximum angular separation at which a point at the band's
			// inner radius could still be within hyperbolic distance R of u.
			dTheta := maxAngle(coshRad[u], sinhRad[u], coshBand[b], sinhBand[b], coshR)
			if dTheta <= 0 {
				continue
			}
			if dTheta >= math.Pi {
				// Whole band is in range of the angular test; check all.
				for _, v := range members {
					if v > u && hypDistLE(coshRad[u], sinhRad[u], coshRad[v], sinhRad[v], th[u], th[v], coshR) {
						nbrs = append(nbrs, graph.Vertex(v))
					}
				}
				continue
			}
			lo, hi := th[u]-dTheta, th[u]+dTheta
			scan := func(a, b float64) {
				start := sort.Search(len(members), func(i int) bool { return th[members[i]] >= a })
				for i := start; i < len(members) && th[members[i]] <= b; i++ {
					v := members[i]
					if v > u && hypDistLE(coshRad[u], sinhRad[u], coshRad[v], sinhRad[v], th[u], th[v], coshR) {
						nbrs = append(nbrs, graph.Vertex(v))
					}
				}
			}
			// Handle wraparound of the angular window.
			switch {
			case lo < 0:
				scan(0, hi)
				scan(lo+2*math.Pi, 2*math.Pi)
			case hi > 2*math.Pi:
				scan(lo, 2*math.Pi)
				scan(0, hi-2*math.Pi)
			default:
				scan(lo, hi)
			}
		}
		return nbrs
	})
	return graph.FromEdges(n, edges)
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
