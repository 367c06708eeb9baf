package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Options scales the whole harness. ScaleShift shifts every instance size by
// powers of two (negative = smaller/faster); MaxP caps the PE sweeps.
type Options struct {
	ScaleShift int
	MaxP       int
	Seed       uint64
}

func (o Options) withDefaults() Options {
	if o.MaxP == 0 {
		o.MaxP = 32
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func pSweep(maxP int) []int {
	var ps []int
	for p := 2; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// Table1 reproduces Table I: instance statistics (n, m, oriented wedges,
// triangles) for the real-world stand-ins.
func Table1(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	t := NewTable("Table I — real-world stand-in instances",
		"instance", "class", "n", "m", "wedges", "triangles", "maxdeg", "notes")
	for _, inst := range gen.Instances {
		g := inst.Build(opt.ScaleShift, opt.Seed)
		stats := graph.ComputeStats(g)
		tri := core.SeqCount(g)
		t.Row(inst.Name, inst.Class, humanCount(int64(stats.N)), humanCount(int64(stats.M)),
			humanCount(int64(stats.Wedges)), humanCount(int64(tri)), stats.MaxDegree, inst.Notes)
	}
	t.Write(w)
	return nil
}

// Fig2 reproduces Fig. 2: the basic distributed algorithm with and without
// message aggregation on the friendster stand-in.
func Fig2(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByInstance("friendster", opt.ScaleShift, opt.Seed)
	if err != nil {
		return err
	}
	t := NewTable("Fig. 2 — message aggregation on friendster stand-in",
		"p", "variant", "wall", "frames(max)", "volume(max words)", "t_model(cloud)", "t_model(wan)")
	for _, p := range pSweep(opt.MaxP) {
		for _, variant := range []struct {
			name      string
			threshold int // 0: δ ∈ O(|E_i|); 1: every record its own frame
		}{{"buffering", 0}, {"no buffering", 1}} {
			res, err := core.Run(core.AlgoDiTric, g, core.Config{P: p, Threshold: variant.threshold})
			if err != nil {
				return err
			}
			t.Row(p, variant.name, res.Wall,
				humanCount(res.Agg.MaxSentFrames), humanCount(res.Agg.MaxPayloadWords),
				costmodel.Bottleneck(res.PerPE, costmodel.Cloud),
				costmodel.Bottleneck(res.PerPE, costmodel.WAN))
		}
	}
	t.Write(w)
	return nil
}

// weakFamilies defines the Fig. 5 weak-scaling inputs: per-PE vertex counts
// (scaled down from the paper's 2^18/2^16 to laptop size).
var weakFamilies = []struct {
	Family  string
	PerPE   int
	EdgeFac int
}{
	{"rgg2d", 1 << 11, 16},
	{"rhg", 1 << 11, 16},
	{"gnm", 1 << 9, 16},
	{"rmat", 1 << 9, 16},
}

// Fig5 reproduces Fig. 5: weak scaling over the four synthetic families,
// reporting running time, the maximum number of sent messages over all PEs,
// and the bottleneck communication volume for all six algorithms.
func Fig5(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	for _, fam := range weakFamilies {
		t := NewTable(fmt.Sprintf("Fig. 5 — weak scaling on %s (%d vertices/PE, edge factor %d)",
			fam.Family, fam.PerPE, fam.EdgeFac),
			"p", "n", "algo", "wall", "msgs(max)", "volume(max)", "t_model(cloud)", "peak buffer(max)", "triangles")
		for _, p := range append([]int{1}, pSweep(opt.MaxP)...) {
			n := fam.PerPE * p
			g, err := gen.ByFamily(fam.Family, n, fam.EdgeFac, opt.Seed+uint64(p))
			if err != nil {
				return err
			}
			for _, v := range PaperSeries {
				res, err := v.Run(g, core.Config{P: p})
				if err != nil {
					return err
				}
				t.Row(p, humanCount(int64(g.NumVertices())), v.Name, res.Wall,
					humanCount(res.Agg.MaxSentFrames), humanCount(res.Agg.MaxPayloadWords),
					costmodel.Bottleneck(res.PerPE, costmodel.Cloud),
					humanCount(res.Agg.MaxPeakBuffered), res.Count)
			}
		}
		t.Write(w)
	}
	return nil
}

// Fig6 reproduces Fig. 6: strong scaling on the eight real-world stand-ins.
func Fig6(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	for _, inst := range gen.Instances {
		g := inst.Build(opt.ScaleShift, opt.Seed)
		t := NewTable(fmt.Sprintf("Fig. 6 — strong scaling on %s (n=%s, m=%s)",
			inst.Name, humanCount(int64(g.NumVertices())), humanCount(int64(g.NumEdges()))),
			"p", "algo", "wall", "msgs(max)", "volume(max)", "t_model(cloud)", "triangles")
		for _, p := range pSweep(opt.MaxP) {
			for _, v := range PaperSeries {
				res, err := v.Run(g, core.Config{P: p})
				if err != nil {
					return err
				}
				t.Row(p, v.Name, res.Wall,
					humanCount(res.Agg.MaxSentFrames), humanCount(res.Agg.MaxPayloadWords),
					costmodel.Bottleneck(res.PerPE, costmodel.Cloud), res.Count)
			}
		}
		t.Write(w)
	}
	return nil
}

// Fig7 reproduces Fig. 7: the running-time distribution over the algorithm
// phases for DITRIC vs CETRIC on selected instances.
func Fig7(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	phases := []string{core.PhasePreprocess, core.PhaseLocal, core.PhaseContraction, core.PhaseGlobal}
	for _, name := range []string{"friendster", "webbase-2001", "live-journal"} {
		g, err := gen.ByInstance(name, opt.ScaleShift, opt.Seed)
		if err != nil {
			return err
		}
		t := NewTable(fmt.Sprintf("Fig. 7 — phase breakdown on %s", name),
			"p", "algo", "preprocess", "local", "contraction", "global",
			"volume(max words)", "t_model(cloud)")
		for _, p := range pSweep(opt.MaxP) {
			for _, algo := range []core.Algorithm{core.AlgoDiTric, core.AlgoCetric} {
				res, err := core.Run(algo, g, core.Config{P: p})
				if err != nil {
					return err
				}
				cells := []any{p, string(algo)}
				for _, ph := range phases {
					cells = append(cells, res.Phases[ph])
				}
				// Whole-run communication: DITRIC enqueues its shipments
				// during the combined local/send loop, so phase-scoped volume
				// would land in "local" for DITRIC and "global" for CETRIC.
				cells = append(cells, humanCount(res.Agg.MaxPayloadWords),
					costmodel.Bottleneck(res.PerPE, costmodel.Cloud))
				t.Row(cells...)
			}
		}
		t.Write(w)
	}
	return nil
}

func modelAggregate(a comm.Aggregate, prof costmodel.Profile) time.Duration {
	s := prof.Alpha*float64(a.MaxSentFrames) + prof.Beta*float64(a.MaxSentWords)
	return time.Duration(s * float64(time.Second))
}

// Fig8 reproduces the appendix figure: the hybrid (MPI×threads) trade-off on
// the orkut stand-in with cores = ranks × threads held constant.
func Fig8(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByInstance("orkut", opt.ScaleShift, opt.Seed)
	if err != nil {
		return err
	}
	cores := opt.MaxP
	t := NewTable(fmt.Sprintf("Fig. 8 — hybrid DITRIC2 on orkut stand-in (cores = ranks × threads = %d)", cores),
		"threads", "ranks", "local", "total wall", "volume(total words)", "msgs(total)", "triangles")
	for threads := 1; threads <= cores; threads *= 2 {
		ranks := cores / threads
		if ranks < 1 {
			break
		}
		res, err := core.Run(core.AlgoDiTric, g, core.Config{P: ranks, Threads: threads, Indirect: true})
		if err != nil {
			return err
		}
		t.Row(threads, ranks, res.Phases[core.PhaseLocal], res.Wall,
			humanCount(res.Agg.TotalPayload), humanCount(res.Agg.TotalFrames), res.Count)
	}
	t.Write(w)
	return nil
}
