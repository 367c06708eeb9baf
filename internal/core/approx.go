package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/amq"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// AMQ-approximate CETRIC (§IV-E) is the CETRIC pipeline plus one record
// kind: with an AMQConfig on the plan, the global stage ships a Bloom filter
// A'(v) instead of the contracted neighborhood A(v) (appendAMQ), the handler
// validates and parks it like any record (checkAMQ), and the receiver
// approximates A(v) ∩ A(u) by querying every member of A(u) against A'(v),
// viewed in place in the decode arena (countState.probeAMQ). Type-1/2
// triangles stay exact; false positives only overestimate type 3, and the
// receiver subtracts their expectation (the paper's truthful estimator).
// With Config.LCC, Δ(v) is estimated too.

// MaxBitsPerKey caps AMQConfig.BitsPerKey: at 64 bits per key a filter is
// as large as the 8-byte neighbor IDs it stands for, so a larger one ships
// more than the exact record would.
const MaxBitsPerKey = 64

// AMQConfig parameterizes the approximate global phase.
type AMQConfig struct {
	// BitsPerKey is the Bloom filter size per inserted neighbor, at most
	// MaxBitsPerKey; ≤ 0 selects 8.
	BitsPerKey float64

	// uncorrected, when set, takes the raw positive probes as the type-3
	// estimate instead of subtracting the expected false positives. Like
	// Config.wire it is set only by this package's tests: raw estimates are
	// integer sums, so they can be compared bit for bit across schedules.
	uncorrected bool
}

// ApproxResult reports an approximate run.
type ApproxResult struct {
	Exact12       uint64  // type-1 + type-2, exact
	Type3Raw      uint64  // raw positive queries (overestimate)
	Type3Estimate float64 // Type3Raw less the expected false positives
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

// RunApproxCetric runs the AMQ variant of CETRIC: the CETRIC pipeline with
// acfg on its plan.
func RunApproxCetric(g *graph.Graph, cfg Config, acfg AMQConfig) (*ApproxResult, error) {
	// The !(b ≤ max) form rejects NaN and +Inf too; -Inf needs IsInf.
	if b := acfg.BitsPerKey; !(b <= MaxBitsPerKey) || math.IsInf(b, -1) {
		return nil, fmt.Errorf("core: Bloom filter bits per key %v, want at most %d (≤ 0 selects 8)", b, MaxBitsPerKey)
	}
	pl, err := prepare(AlgoCetric, uint64(g.NumVertices()), g.NumEdges(), cfg)
	if err != nil {
		return nil, err
	}
	if acfg.BitsPerKey <= 0 {
		acfg.BitsPerKey = 8
	}
	pl.amq = &acfg
	start := time.Now()
	outcomes, metrics, err := pl.run(func(pe *dist.PE, out *peOutcome) error {
		return pl.body(pe, g, out)
	})
	if err != nil {
		return nil, err
	}
	res := &ApproxResult{PerPE: metrics, Agg: comm.AggregateOf(metrics), Wall: time.Since(start)}
	for _, out := range outcomes {
		res.Exact12 += out.typeCounts[0] + out.typeCounts[1]
		res.Type3Raw += out.typeCounts[2]
		res.Type3Estimate += out.amqEst
	}
	res.Estimate = float64(res.Exact12) + res.Type3Estimate
	if pl.cfg.LCC {
		res.DeltaEstimates = make([]float64, g.NumVertices())
		for _, out := range outcomes {
			copy(res.DeltaEstimates[out.first:], out.deltaEst)
		}
		res.LCCEstimates = LCCFromDeltas(g, res.DeltaEstimates)
	}
	return res, nil
}

// appendAMQ appends the chAMQ record of v's cut neighborhood av to dst:
// [v, |A(v)|, filter header, filter words], with A'(v) built in place.
func appendAMQ(dst []uint64, v graph.Vertex, av []graph.Vertex, c *AMQConfig) []uint64 {
	dst = append(dst, v, uint64(len(av)))
	dst, f := amq.AppendBloom(dst, len(av), c.BitsPerKey)
	for _, u := range av {
		f.Insert(u)
	}
	return dst
}

// checkAMQ validates a received chAMQ record [v, |A(v)|, filter header,
// filter words...] before it is parked: a record shorter than its header, or
// a filter header that does not describe its words, is a corrupt frame.
func checkAMQ(src int, rec []uint64) {
	if _, err := amq.ViewBloom(rec[min(len(rec), 2):]); err != nil {
		panic(&comm.CorruptFrameError{Src: src, Reason: "amq record: " + err.Error()})
	}
}

// probeAMQ processes one received filter A'(v) — words, validated by
// checkAMQ on receipt and viewed in place. A(v) ∩ V_i is v's expanded ghost
// row; for each u in it, every w in the cut list A(u) is queried against the
// filter. The positive count is the pair's raw estimate; the pair's estimate
// subtracts the false positives expected at the filter's load-based rate —
// far more accurate than the asymptotic formula on the small filters real
// neighborhoods produce. Under LCC the pair estimate goes to both wedge
// endpoints and is spread over the positive closing vertices. Returns the
// number of positive probes.
func (s *countState) probeAMQ(v graph.Vertex, words []uint64, cut *graph.LocalOriented) (raw uint64) {
	lg := s.lg
	row, ok := lg.GhostRow(v)
	if !ok {
		return 0 // v has no local neighbors here; nothing to check
	}
	bloom, _ := amq.ViewBloom(words)
	fpr := 1.0
	if !s.amq.uncorrected {
		fpr = bloom.LoadFPR()
	}
	lcc := s.deltaEst != nil
	hits := s.hits
	for _, ur := range s.amqOri.OutRows(row) {
		ru := int32(ur)
		// A cut list holds only ghosts, whose rows are numbered in ID order:
		// Out (the probe keys) and OutRows list the same vertices in the same
		// order, so a hit's index is its row's index too.
		au := cut.Out(ru)
		if len(au) == 0 {
			continue
		}
		s.recvWork += uint64(len(au))
		pos := 0
		hits = hits[:0]
		for k, key := range au {
			if bloom.MayContain(key) {
				pos++
				if lcc {
					hits = append(hits, int32(k))
				}
			}
		}
		raw += uint64(pos)
		est := float64(pos)
		if fpr < 1 {
			est = (est - float64(len(au))*fpr) / (1 - fpr)
		}
		s.amqEst += est
		if !lcc {
			continue
		}
		s.deltaEst[row] += est
		s.deltaEst[ru] += est
		if pos > 0 {
			share := est / float64(pos)
			rows := cut.OutRows(ru)
			for _, k := range hits {
				s.deltaEst[rows[k]] += share
			}
		}
	}
	s.hits = hits
	return raw
}
