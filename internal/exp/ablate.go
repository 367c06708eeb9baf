package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gen"
)

// Ablations for the engineering choices of the paper's §IV (aggregation,
// contraction, indirection, surrogate dedup) and of the extensions and
// baselines around them.

// AblateThreshold sweeps the aggregation threshold δ: smaller δ means more,
// smaller messages and a lower memory peak.
func AblateThreshold(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByFamily("rmat", 1<<12, 16, opt.Seed)
	if err != nil {
		return err
	}
	p := 8
	t := NewTable("Ablation — aggregation threshold δ (DITRIC, RMAT 2^12, p=8)",
		"δ (words)", "frames(total)", "peak buffer(max)", "wall", "t_model(cloud)")
	for _, delta := range []int{64, 512, 4096, 1 << 15, 1 << 20} {
		res, err := core.Run(core.AlgoDiTric, g, core.Config{P: p, Threshold: delta})
		if err != nil {
			return err
		}
		t.Row(delta, humanCount(res.Agg.TotalFrames), humanCount(res.Agg.MaxPeakBuffered),
			res.Wall, costmodel.Bottleneck(res.PerPE, costmodel.Cloud))
	}
	t.Write(w)
	return nil
}

// AblateContraction compares CETRIC against DITRIC per family: contraction
// helps where locality exists (rgg2d, rhg, web-like) and wastes local work
// where it does not (gnm).
func AblateContraction(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	p := 8
	t := NewTable("Ablation — contraction (CETRIC) vs plain (DITRIC), p=8",
		"family", "algo", "volume(max)", "reduction", "local+contract wall", "global wall")
	for _, fam := range weakFamilies {
		g, err := gen.ByFamily(fam.Family, 1<<12, fam.EdgeFac, opt.Seed)
		if err != nil {
			return err
		}
		var base int64
		for _, algo := range []core.Algorithm{core.AlgoDiTric, core.AlgoCetric} {
			res, err := core.Run(algo, g, core.Config{P: p})
			if err != nil {
				return err
			}
			vol := res.Agg.MaxPayloadWords
			reduction := "1.00x"
			if algo == core.AlgoDiTric {
				base = vol
			} else if vol > 0 {
				reduction = fmt.Sprintf("%.2fx", float64(base)/float64(vol))
			} else {
				reduction = "inf"
			}
			t.Row(fam.Family, string(algo), humanCount(vol), reduction,
				res.Phases[core.PhaseLocal]+res.Phases[core.PhaseContraction],
				res.Phases[core.PhaseGlobal])
		}
	}
	t.Write(w)
	return nil
}

// AblateIndirection measures the indirect grid routing: fewer peers and
// frames per PE at the cost of roughly doubled transported words.
func AblateIndirection(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	t := NewTable("Ablation — grid indirection (GNM 2^13, DITRIC vs DITRIC2)",
		"p", "algo", "peers(max)", "frames(max)", "words(max transported)", "t_model(cloud)", "t_model(wan)")
	g, err := gen.ByFamily("gnm", 1<<13, 16, opt.Seed)
	if err != nil {
		return err
	}
	for _, p := range pSweep(opt.MaxP) {
		for _, v := range Variants("ditric", "ditric2") {
			res, err := v.Run(g, core.Config{P: p})
			if err != nil {
				return err
			}
			t.Row(p, v.Name, res.Agg.MaxPeers,
				humanCount(res.Agg.MaxSentFrames), humanCount(res.Agg.MaxSentWords),
				costmodel.Bottleneck(res.PerPE, costmodel.Cloud),
				costmodel.Bottleneck(res.PerPE, costmodel.WAN))
		}
	}
	t.Write(w)
	return nil
}

// AblateAMQ sweeps the Bloom filter budget of the approximate global phase:
// volume versus estimate accuracy (§IV-E).
func AblateAMQ(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByFamily("gnm", 1<<12, 16, opt.Seed)
	if err != nil {
		return err
	}
	p := 8
	exact, err := core.Run(core.AlgoCetric, g, core.Config{P: p})
	if err != nil {
		return err
	}
	t := NewTable(fmt.Sprintf("Ablation — AMQ approximate type-3 counting (GNM 2^12, p=8, exact=%d)", exact.Count),
		"bits/key", "filter", "estimate", "rel err", "global payload", "vs exact payload")
	for _, blocked := range []bool{false, true} {
		kind := "bloom"
		if blocked {
			kind = "blocked"
		}
		for _, bits := range []float64{2, 4, 8, 16} {
			res, err := core.RunApproxCetric(g, core.Config{P: p},
				core.AMQConfig{BitsPerKey: bits, Blocked: blocked, Truthful: true})
			if err != nil {
				return err
			}
			rel := math.Abs(res.Estimate-float64(exact.Count)) / float64(exact.Count)
			ratio := float64(res.Agg.TotalPayload) / float64(exact.Agg.TotalPayload)
			t.Row(bits, kind, fmt.Sprintf("%.0f", res.Estimate), fmt.Sprintf("%.4f", rel),
				humanCount(res.Agg.TotalPayload), fmt.Sprintf("%.2fx", ratio))
		}
	}
	t.Write(w)
	return nil
}

// AblateApproxBaselines compares DOULION and colorful sparsification with
// the AMQ approach at similar accuracy targets.
func AblateApproxBaselines(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByFamily("rmat", 1<<12, 16, opt.Seed)
	if err != nil {
		return err
	}
	p := 8
	truth := float64(core.SeqCount(g))
	t := NewTable(fmt.Sprintf("Ablation — approximation baselines (RMAT 2^12, p=8, exact=%.0f)", truth),
		"method", "param", "estimate", "rel err", "volume(total payload)")
	for _, q := range []float64{0.25, 0.5} {
		est, res, err := core.RunDoulion(core.AlgoCetric, g, core.Config{P: p}, q, opt.Seed)
		if err != nil {
			return err
		}
		t.Row("doulion", fmt.Sprintf("q=%.2f", q), fmt.Sprintf("%.0f", est),
			fmt.Sprintf("%.4f", math.Abs(est-truth)/truth), humanCount(res.Agg.TotalPayload))
	}
	for _, nc := range []int{2, 4} {
		est, res, err := core.RunColorful(core.AlgoCetric, g, core.Config{P: p}, nc, opt.Seed)
		if err != nil {
			return err
		}
		t.Row("colorful", fmt.Sprintf("N=%d", nc), fmt.Sprintf("%.0f", est),
			fmt.Sprintf("%.4f", math.Abs(est-truth)/truth), humanCount(res.Agg.TotalPayload))
	}
	for _, bits := range []float64{4, 8} {
		res, err := core.RunApproxCetric(g, core.Config{P: p}, core.AMQConfig{BitsPerKey: bits, Truthful: true})
		if err != nil {
			return err
		}
		t.Row("amq-cetric", fmt.Sprintf("b=%.0f", bits), fmt.Sprintf("%.0f", res.Estimate),
			fmt.Sprintf("%.4f", math.Abs(res.Estimate-truth)/truth), humanCount(res.Agg.TotalPayload))
	}
	t.Write(w)
	return nil
}

// AblateSurrogate toggles the surrogate dedup of Arifuzzaman et al.:
// without it every neighborhood ships once per cut edge instead of once per
// destination PE.
func AblateSurrogate(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	t := NewTable("Ablation — surrogate dedup (once per PE) vs per-edge shipments (p=8)",
		"family", "mode", "volume(total payload)", "frames(total)", "t_model(cloud)")
	for _, fam := range []string{"rgg2d", "rmat"} {
		g, err := gen.ByFamily(fam, 1<<12, 16, opt.Seed)
		if err != nil {
			return err
		}
		for _, noSurrogate := range []bool{false, true} {
			res, err := core.Run(core.AlgoDiTric, g, core.Config{P: 8, NoSurrogate: noSurrogate})
			if err != nil {
				return err
			}
			mode := "surrogate dedup"
			if noSurrogate {
				mode = "per-edge"
			}
			t.Row(fam, mode, humanCount(res.Agg.TotalPayload), humanCount(res.Agg.TotalFrames),
				costmodel.Bottleneck(res.PerPE, costmodel.Cloud))
		}
	}
	t.Write(w)
	return nil
}

// AblateNetworkCrossover probes the paper's prediction that CETRIC overtakes
// DITRIC on slower interconnects. On RGG2D (high locality) CETRIC cuts the
// bottleneck volume by a constant factor but pays extra local work, exactly
// as the paper measures; whether the trade pays off depends on the per-word
// network cost β. The table reports measured compute (averaged over runs),
// bottleneck volumes, modeled totals per profile, and the break-even
// bandwidth below which CETRIC wins — the quantitative version of the
// paper's "we still expect CETRIC to outperform DITRIC on a system with
// slower network interconnects".
func AblateNetworkCrossover(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := gen.ByFamily("rgg2d", 1<<13, 16, opt.Seed)
	if err != nil {
		return err
	}
	type run struct {
		algo    core.Algorithm
		compute time.Duration
		per     []comm.Metrics
		volume  int64
	}
	const repeats = 3
	runs := make([]run, 0, 2)
	for _, algo := range []core.Algorithm{core.AlgoDiTric, core.AlgoCetric} {
		var compute time.Duration
		var res *core.Result
		for i := 0; i < repeats; i++ {
			res, err = core.Run(algo, g, core.Config{P: 16})
			if err != nil {
				return err
			}
			compute += res.Phases[core.PhasePreprocess] + res.Phases[core.PhaseLocal] +
				res.Phases[core.PhaseContraction]
		}
		runs = append(runs, run{algo, compute / repeats, res.PerPE, res.Agg.MaxPayloadWords})
	}
	t := NewTable("Ablation — network regime crossover (RGG2D 2^13, p=16): compute wall + modeled comm",
		"profile", "algo", "compute", "volume(max)", "comm(model)", "total", "winner")
	for _, prof := range costmodel.Profiles() {
		totals := make([]time.Duration, len(runs))
		for i, r := range runs {
			totals[i] = r.compute + costmodel.Bottleneck(r.per, prof)
		}
		winner := runs[0].algo
		if totals[1] < totals[0] {
			winner = runs[1].algo
		}
		for i, r := range runs {
			mark := ""
			if r.algo == winner {
				mark = "◀"
			}
			t.Row(prof.Name, string(r.algo), r.compute, humanCount(r.volume),
				costmodel.Bottleneck(r.per, prof), totals[i], mark)
		}
	}
	t.Write(w)
	// Break-even per-word cost: CETRIC wins when β·(V_D − V_C) exceeds its
	// extra compute.
	dV := runs[0].volume - runs[1].volume
	dC := runs[1].compute - runs[0].compute
	if dV > 0 && dC > 0 {
		betaStar := dC.Seconds() / float64(dV) // s per 8-byte word
		bw := 64 / betaStar                    // bits/s
		fmt.Fprintf(w, "Break-even: CETRIC overtakes DITRIC below ≈ %.1f Mbit/s effective per-PE bandwidth\n"+
			"(extra compute %v vs volume saving %s words).\n\n",
			bw/1e6, dC, humanCount(dV))
	} else if dC <= 0 {
		fmt.Fprintf(w, "CETRIC is not compute-disadvantaged on this input; it wins at any bandwidth.\n\n")
	}
	return nil
}

// Ablate runs every ablation.
func Ablate(w io.Writer, opt Options) error {
	for _, fn := range []func(io.Writer, Options) error{
		AblateThreshold, AblateContraction, AblateIndirection, AblateSurrogate,
		AblateAMQ, AblateApproxBaselines, AblateNetworkCrossover,
	} {
		if err := fn(w, opt); err != nil {
			return err
		}
	}
	return nil
}
