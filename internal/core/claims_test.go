package core

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
)

// claimFamilies are Fig. 5's weak-scaling inputs at test size: the four
// generator families, each with perPE vertices per PE and edge factor 16.
var claimFamilies = []struct {
	family string
	perPE  int
}{
	{"rgg2d", 1 << 11},
	{"rhg", 1 << 11},
	{"gnm", 1 << 9},
	{"rmat", 1 << 9},
}

// claimPEs is the PE sweep of every claim cell.
var claimPEs = []int{2, 4, 8, 16, 32}

// TestPaperClaims asserts the exact communication traces behind the paper's
// evaluation — aggregation (Fig. 2), grid indirection (§IV-B), contraction
// (CETRIC), surrogate dedup (Arifuzzaman et al.) and O(δ) queue memory —
// over the four generator families × p ∈ claimPEs. Every run must count
// exactly SeqCount; then, in every cell:
//
//   - (i) aggregation: under direct routing no PE flushes more often than
//     Peers·(⌊SentWords/(δ+1)⌋ + 1) — each overflow flush moves more than δ
//     words, plus the final drain — and DITRIC with δ = 1 sends at least 4×
//     DITRIC's frames (MaxSentFrames and TotalFrames);
//   - (ii) indirection: direct DITRIC on GNM talks to all p−1 peers; under
//     Indirect no PE talks to more than r+c−2 of its r×c grid, and the
//     second hop moves more words in total than direct delivery (as many
//     on a one-column grid, which routes nothing indirectly);
//   - (iii) contraction: CETRIC's bottleneck volume (MaxPayloadWords) is at
//     most DITRIC's, and at most 0.6× it on the high-locality RGG2D and RHG;
//   - (iv) surrogate dedup: turning it off raises TotalPayload and never
//     lowers MaxPayloadWords, for both engines;
//   - (v) queue memory: no PE ever buffers more than δ + 5 + maxdeg words —
//     δ plus one record (4 envelope words, a header word and at most maxdeg
//     neighbors).
//
// The -v log lists each cell's ratios; README's "Paper claims" reports them.
func TestPaperClaims(t *testing.T) {
	for _, fam := range claimFamilies {
		for _, p := range claimPEs {
			t.Run(fmt.Sprintf("%s/p=%d", fam.family, p), func(t *testing.T) {
				paperClaimsCell(t, fam.family, fam.perPE*p, p)
			})
		}
	}
}

func paperClaimsCell(t *testing.T, family string, n, p int) {
	g, err := gen.ByFamily(family, n, 16, 42+uint64(p))
	if err != nil {
		t.Fatal(err)
	}
	want := SeqCount(g)
	maxdeg := int64(g.MaxDegree())
	delta := int64(DefaultThreshold(g.NumEdges(), p))
	grid := comm.NewGrid(p)

	run := func(name string, v variant, cfg Config) *Result {
		t.Helper()
		cfg.P = p
		res, err := v.run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != want {
			t.Fatalf("%s: count %d, want %d", name, res.Count, want)
		}
		// (v) queue memory is O(δ): the buffer tops out one record past δ.
		d := delta
		if v.noAgg {
			d = 1
		}
		if res.Agg.MaxPeakBuffered > d+5+maxdeg {
			t.Errorf("(v) %s: peak buffer %d words > δ %d + 5 + maxdeg %d",
				name, res.Agg.MaxPeakBuffered, d, maxdeg)
		}
		// (i) aggregation: every overflow flush moves more than δ words.
		if !v.indirect {
			for r, m := range res.PerPE {
				if bound := m.Peers * (m.SentWords/(d+1) + 1); m.Flushes > bound {
					t.Errorf("(i) %s PE %d: %d flushes > peers %d · (⌊%d words/(δ %d + 1)⌋ + 1) = %d",
						name, r, m.Flushes, m.Peers, m.SentWords, d, bound)
				}
			}
		}
		return res
	}
	ditric := run("ditric", vDiTric, Config{})
	cetric := run("cetric", vCetric, Config{})
	noagg := run("noagg", vNoAgg, Config{})
	ditric2 := run("ditric2", vDiTric2, Config{})
	ditricNS := run("ditric no-surrogate", vDiTric, Config{noSurrogate: true})
	cetricNS := run("cetric no-surrogate", vCetric, Config{noSurrogate: true})

	// (i) Fig. 2: unbuffered DITRIC sends many more frames, on the busiest
	// PE and in total.
	if noagg.Agg.MaxSentFrames < 4*ditric.Agg.MaxSentFrames || noagg.Agg.TotalFrames < 4*ditric.Agg.TotalFrames {
		t.Errorf("(i) δ = 1 sends %d frames (max), %d (total), want ≥ 4 × ditric's %d, %d",
			noagg.Agg.MaxSentFrames, noagg.Agg.TotalFrames, ditric.Agg.MaxSentFrames, ditric.Agg.TotalFrames)
	}

	// (ii) §IV-B: the grid caps fan-out at r+c−2, paying with a second hop.
	if family == "gnm" && ditric.Agg.MaxPeers != int64(p-1) {
		t.Errorf("(ii) direct ditric on gnm talks to %d peers (max), want p−1 = %d", ditric.Agg.MaxPeers, p-1)
	}
	rc := int64(grid.Rows() + grid.Cols() - 2)
	if ditric2.Agg.MaxPeers > rc {
		t.Errorf("(ii) ditric2 talks to %d peers (max), want ≤ r+c−2 = %d on the %d×%d grid",
			ditric2.Agg.MaxPeers, rc, grid.Rows(), grid.Cols())
	}
	// A one-column grid (p = 2) routes everything directly; any wider one
	// forwards some records over a second hop.
	if w2, w := ditric2.Agg.TotalWords, ditric.Agg.TotalWords; w2 < w || (grid.Cols() > 1 && w2 == w) {
		t.Errorf("(ii) ditric2 moves %d words in total against direct delivery's %d on the %d×%d grid",
			w2, w, grid.Rows(), grid.Cols())
	}

	// (iii) contraction never raises the bottleneck volume, and on the
	// high-locality families it cuts it by more than 40%.
	limit := 1.0
	if family == "rgg2d" || family == "rhg" {
		limit = 0.6
	}
	contraction := float64(cetric.Agg.MaxPayloadWords) / float64(ditric.Agg.MaxPayloadWords)
	if contraction > limit {
		t.Errorf("(iii) cetric bottleneck volume %d = %.2f × ditric's %d, want ≤ %.1f×",
			cetric.Agg.MaxPayloadWords, contraction, ditric.Agg.MaxPayloadWords, limit)
	}

	// (iv) without the dedup a neighborhood ships once per cut edge.
	for _, ns := range []struct {
		name         string
		dedup, plain *Result
	}{{"ditric", ditric, ditricNS}, {"cetric", cetric, cetricNS}} {
		if ns.plain.Agg.TotalPayload <= ns.dedup.Agg.TotalPayload ||
			ns.plain.Agg.MaxPayloadWords < ns.dedup.Agg.MaxPayloadWords {
			t.Errorf("(iv) %s without surrogate dedup: volume total %d, max %d; with it: total %d, max %d",
				ns.name, ns.plain.Agg.TotalPayload, ns.plain.Agg.MaxPayloadWords,
				ns.dedup.Agg.TotalPayload, ns.dedup.Agg.MaxPayloadWords)
		}
	}

	t.Logf("frames δ=1/ditric %.1f× | peers %d direct, %d indirect (r+c−2 = %d) | frames direct/indirect %d/%d |"+
		" cetric/ditric volume %.2f | no-surrogate volume ditric %.2f× cetric %.2f× | peak−δ %d, maxdeg %d",
		float64(noagg.Agg.MaxSentFrames)/float64(ditric.Agg.MaxSentFrames),
		ditric.Agg.MaxPeers, ditric2.Agg.MaxPeers, rc,
		ditric.Agg.MaxSentFrames, ditric2.Agg.MaxSentFrames,
		contraction,
		float64(ditricNS.Agg.MaxPayloadWords)/float64(ditric.Agg.MaxPayloadWords),
		float64(cetricNS.Agg.MaxPayloadWords)/float64(cetric.Agg.MaxPayloadWords),
		ditric.Agg.MaxPeakBuffered-delta, maxdeg)
}
