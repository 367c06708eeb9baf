package core

import (
	"math"
	"time"

	"repro/internal/amq"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// AMQ-approximate CETRIC (§IV-E): type-1 and type-2 triangles are counted
// exactly by the local phase; for type-3 triangles, instead of shipping the
// contracted neighborhood A(v), the PE ships an approximate membership query
// structure A'(v) (a Bloom filter). The receiver approximates the set
// intersection A(v) ∩ A(u) by querying every member of A(u) against A'(v).
// False positives only ever overestimate; subtracting their expectation
// yields the paper's truthful estimator.
//
// With Config.LCC set, per-vertex triangle counts are estimated as well:
// exact Δ contributions from the local phase plus corrected estimates from
// the approximate global phase — the use case the paper singles out, since
// the classic sampling baselines (DOULION, colorful) cannot estimate local
// clustering coefficients.

// AMQConfig parameterizes the approximate global phase.
type AMQConfig struct {
	BitsPerKey float64 // Bloom filter size per inserted neighbor (e.g. 8)
	Blocked    bool    // use the cache-efficient blocked filter [42]
	Truthful   bool    // subtract the expected false positives
}

// ApproxResult reports an approximate run.
type ApproxResult struct {
	Exact12       uint64  // type-1 + type-2, exact
	Type3Raw      uint64  // raw positive queries (overestimate)
	Type3Estimate float64 // corrected type-3 estimate (== raw when !Truthful)
	Estimate      float64 // Exact12 + Type3Estimate

	// DeltaEstimates and LCCEstimates are filled when Config.LCC is set:
	// per-vertex triangle-count estimates and the local clustering
	// coefficients derived from them.
	DeltaEstimates []float64
	LCCEstimates   []float64

	PerPE []comm.Metrics
	Agg   comm.Aggregate
	Wall  time.Duration
}

type approxOutcome struct {
	exact12 uint64
	raw     uint64
	est     float64
	deltas  map[graph.Vertex]float64
}

// RunApproxCetric runs the AMQ variant of CETRIC.
func RunApproxCetric(g *graph.Graph, cfg Config, acfg AMQConfig) (*ApproxResult, error) {
	pl, err := prepare(AlgoCetric, uint64(g.NumVertices()), g.NumEdges(), cfg)
	if err != nil {
		return nil, err
	}
	cfg = pl.cfg
	if acfg.BitsPerKey <= 0 {
		acfg.BitsPerKey = 8
	}
	outcomes := make([]*approxOutcome, cfg.P)
	start := time.Now()
	_, metrics, err := pl.run(func(pe *dist.PE, _ *peOutcome) error {
		out := &approxOutcome{}
		outcomes[pe.Rank] = out
		return approxCetricBody(pe, pl, g, acfg, out)
	})
	if err != nil {
		return nil, err
	}
	res := &ApproxResult{PerPE: metrics, Agg: comm.AggregateOf(metrics), Wall: time.Since(start)}
	for _, out := range outcomes {
		res.Exact12 += out.exact12
		res.Type3Raw += out.raw
		res.Type3Estimate += out.est
	}
	res.Estimate = float64(res.Exact12) + res.Type3Estimate
	if cfg.LCC {
		res.DeltaEstimates = make([]float64, g.NumVertices())
		for _, out := range outcomes {
			for gid, d := range out.deltas {
				res.DeltaEstimates[gid] = d
			}
		}
		res.LCCEstimates = make([]float64, g.NumVertices())
		for v := range res.LCCEstimates {
			d := g.Degree(graph.Vertex(v))
			if d >= 2 {
				res.LCCEstimates[v] = 2 * res.DeltaEstimates[v] / (float64(d) * float64(d-1))
			}
		}
	}
	return res, nil
}

func approxCetricBody(pe *dist.PE, pl *plan, g *graph.Graph, acfg AMQConfig, out *approxOutcome) error {
	pt, cfg := pl.pt, pl.cfg
	lg := graph.BuildLocalCSR(pt, pe.Rank, g, cfg.Threads)
	exchangeGhostDegrees(pe, lg, cfg.SparseDegreeExchange, cfg.Threads)
	ori := graph.OrientLocalPar(lg, cfg.Threads)
	state := newCountState(lg, cfg)

	// Float Δ estimates per row (exact local contributions are merged in at
	// the end from state.deltaRows).
	var deltaF []float64
	if cfg.LCC {
		deltaF = make([]float64, lg.Rows())
	}

	var cut *graph.LocalOriented
	pe.Q.Handle(chAMQ, func(src int, words []uint64) {
		v := words[0]
		var filter amq.Filter
		if acfg.Blocked {
			filter = amq.BlockedFromWords(words[2:])
		} else {
			filter = amq.BloomFromWords(words[2:])
		}
		// The load-based rate is far more accurate than the asymptotic
		// formula on the small filters real neighborhoods produce, which
		// matters because the truthful correction is only as good as the
		// rate estimate. words[1] still carries |A(v)| for diagnostics.
		fpr := filter.LoadFPR()
		row, ok := lg.GhostRow(v)
		if !ok {
			return // v has no local neighbors here; nothing to check
		}
		// A(v) ∩ V_i is exactly the expanded ghost row's oriented list.
		for _, u := range ori.Out(row) {
			au := cut.Out(lg.Row(u))
			if len(au) == 0 {
				continue
			}
			pos := 0
			var posRows []int32
			for _, w := range au {
				if filter.MayContain(w) {
					pos++
					if cfg.LCC {
						posRows = append(posRows, lg.Row(w))
					}
				}
			}
			out.raw += uint64(pos)
			pairEst := float64(pos)
			if acfg.Truthful && fpr < 1 {
				pairEst = (float64(pos) - float64(len(au))*fpr) / (1 - fpr)
			}
			out.est += pairEst
			if cfg.LCC {
				// Attribute the pair estimate to the wedge endpoints and
				// spread it over the positive closing vertices.
				deltaF[row] += pairEst
				deltaF[lg.Row(u)] += pairEst
				if pos > 0 {
					share := pairEst / float64(pos)
					for _, wr := range posRows {
						deltaF[wr] += share
					}
				}
			}
		}
	})
	if cfg.LCC {
		pe.Q.Handle(chDeltaF, func(_ int, words []uint64) {
			for i := 0; i+1 < len(words); i += 2 {
				deltaF[lg.Row(words[i])] += math.Float64frombits(words[i+1])
			}
		})
	}
	pe.C.Barrier()

	// Local phase: exact type-1/2 counting (with exact Δ when LCC is on).
	cetricLocalPhase(lg, ori, state, 0, lg.Rows())
	out.exact12 = state.count

	// Contraction + approximate global phase.
	cut = ori.ContractPar(cfg.Threads)
	for r := 0; r < lg.NLocal(); r++ {
		v := lg.GID(int32(r))
		av := cut.Out(int32(r))
		if len(av) < 2 {
			continue
		}
		var filter amq.Filter
		if acfg.Blocked {
			filter = amq.NewBlocked(len(av), acfg.BitsPerKey)
		} else {
			filter = amq.NewBloom(len(av), acfg.BitsPerKey)
		}
		for _, u := range av {
			filter.Insert(u)
		}
		words := filter.Words()
		payload := make([]uint64, 0, 2+len(words))
		payload = append(payload, v, uint64(len(av)))
		payload = append(payload, words...)
		lastRank := -1
		for _, u := range av {
			if j := pt.Rank(u); j != lastRank {
				pe.Q.Send(chAMQ, j, payload)
				lastRank = j
			}
		}
	}
	pe.Q.Drain()

	if cfg.LCC {
		// Merge the exact local-phase Δ and ship ghost estimates home.
		for r := 0; r < lg.Rows(); r++ {
			deltaF[r] += float64(state.deltaRows[r])
		}
		batch := make(map[int][]uint64)
		for i, gid := range lg.Ghosts() {
			row := lg.NLocal() + i
			if d := deltaF[row]; d != 0 {
				dst := lg.Part.Rank(gid)
				batch[dst] = append(batch[dst], gid, math.Float64bits(d))
			}
		}
		for dst, words := range batch {
			pe.Q.Send(chDeltaF, dst, words)
		}
		pe.Q.Drain()
		out.deltas = make(map[graph.Vertex]float64, lg.NLocal())
		for r := 0; r < lg.NLocal(); r++ {
			out.deltas[lg.GID(int32(r))] = deltaF[r]
		}
	}
	return nil
}

// ExpectedAMQWords estimates the shipped words per neighborhood of size n at
// the given bits per key (filter payload + 2 header words), for volume
// accounting in benchmarks.
func ExpectedAMQWords(n int, bitsPerKey float64) int {
	return 2 + 2 + int(math.Ceil(float64(n)*bitsPerKey/64))
}
