package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/part"
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
//     Peers·(⌊SentWords/(δ+1)⌋ + 4) — each overflow flush moves more than δ
//     words, plus at most one frame per peer for each of the degree
//     requests, the degree replies, the out-degree replies and the final
//     drain — and DITRIC with δ = 1 sends at least 4× DITRIC's frames
//     (MaxSentFrames and TotalFrames);
//   - (ii) indirection: direct DITRIC on GNM talks to all p−1 peers; under
//     Indirect no PE talks to more than r+c−2 of its r×c grid, and the
//     second hop moves more words in total than direct delivery (as many
//     on a one-column grid, which routes nothing indirectly);
//   - (iii) contraction: CETRIC's bottleneck volume (MaxPayloadWords) is at
//     most DITRIC's, and at most 0.6× it on the high-locality RGG2D and RHG;
//   - (iv) surrogate dedup: turning it off raises TotalPayload and never
//     lowers MaxPayloadWords, for both engines;
//   - (v) queue memory: no PE ever buffers more than δ + 4 + rec words — δ
//     plus one record of 4 envelope words and at most rec payload words, the
//     larger of a shipment (a header word and at most maxdeg neighbors) and
//     the longest degree request (a PE's ghosts of one owner);
//   - (x) static aggregation: TriC, the pipeline at δ = ∞, sends at most
//     p−1 frames per PE and holds its whole volume at once — PeakBuffered
//     is SentWords less the one tag word per frame — which is the paper's
//     explanation for TriC's out-of-memory crashes. (v) does not bound it.
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
	rec := maxdeg + 1
	for _, row := range ghostsByOwner(g, part.Uniform(uint64(g.NumVertices()), p)) {
		rec = max(rec, int64(slices.Max(row)))
	}
	delta := int64(DefaultThreshold(g.NumEdges(), p))
	grid := comm.NewGrid(p)

	count := func(name string, v variant, cfg Config) *Result {
		t.Helper()
		cfg.P = p
		res, err := v.run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != want {
			t.Fatalf("%s: count %d, want %d", name, res.Count, want)
		}
		return res
	}
	run := func(name string, v variant, cfg Config) *Result {
		t.Helper()
		res := count(name, v, cfg)
		// (v) queue memory is O(δ): the buffer tops out one record past δ.
		d := delta
		if v.noAgg {
			d = 1
		}
		if res.Agg.MaxPeakBuffered > d+4+rec {
			t.Errorf("(v) %s: peak buffer %d words > δ %d + 4 + record %d",
				name, res.Agg.MaxPeakBuffered, d, rec)
		}
		// (i) aggregation: every overflow flush moves more than δ words.
		if !v.indirect {
			for r, m := range res.PerPE {
				if bound := m.Peers * (m.SentWords/(d+1) + 4); m.Flushes > bound {
					t.Errorf("(i) %s PE %d: %d flushes > peers %d · (⌊%d words/(δ %d + 1)⌋ + 4) = %d",
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

	// (x) TriC's static buffers: one frame per peer, the whole volume
	// buffered at once.
	tric := count("tric", vTriC, Config{})
	for r, m := range tric.PerPE {
		if m.SentFrames > int64(p-1) || m.PeakBuffered != m.SentWords-m.SentFrames {
			t.Errorf("(x) tric PE %d: %d frames (want ≤ p−1 = %d), peak buffer %d words (want SentWords − SentFrames = %d)",
				r, m.SentFrames, p-1, m.PeakBuffered, m.SentWords-m.SentFrames)
		}
	}

	t.Logf("frames δ=1/ditric %.1f× | peers %d direct, %d indirect (r+c−2 = %d) | frames direct/indirect %d/%d |"+
		" cetric/ditric volume %.2f | no-surrogate volume ditric %.2f× cetric %.2f× | peak−δ %d, maxdeg %d | tric peak/δ %.1f",
		float64(noagg.Agg.MaxSentFrames)/float64(ditric.Agg.MaxSentFrames),
		ditric.Agg.MaxPeers, ditric2.Agg.MaxPeers, rc,
		ditric.Agg.MaxSentFrames, ditric2.Agg.MaxSentFrames,
		contraction,
		float64(ditricNS.Agg.MaxPayloadWords)/float64(ditric.Agg.MaxPayloadWords),
		float64(cetricNS.Agg.MaxPayloadWords)/float64(cetric.Agg.MaxPayloadWords),
		ditric.Agg.MaxPeakBuffered-delta, maxdeg,
		float64(tric.Agg.MaxPeakBuffered)/float64(delta))
}
