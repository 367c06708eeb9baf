package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/graph"
)

// tricBody reimplements the TriC baseline (Ghosh & Halappanavar) from its
// published description: no degree orientation (edges are oriented by vertex
// ID only, so high-degree hubs keep large out-neighborhoods), and *static*
// message aggregation — every shipment is buffered in full and exchanged in
// one single irregular all-to-all. The static buffers make its peak memory
// proportional to the total communication volume, which is superlinear in
// the input; that is the paper's explanation for TriC's out-of-memory
// crashes, and it shows up here as Metrics.PeakBuffered.
func tricBody(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	pt, cfg := pl.pt, pl.cfg
	sw.phase(PhaseOrient)
	// No ghost degree exchange: ID orientation needs no remote information.
	ori := graph.OrientLocalByIDPar(lg, cfg.Threads)
	// Without the degree orientation, hub rows keep their full
	// out-neighborhoods — exactly what the packed hub bitmaps are for.
	ori.BuildHubsPar(cfg.hubMinDegree(), cfg.Threads)
	sw.phase(PhasePreprocess) // residual: state setup, matching the other bodies
	state := newCountState(lg, cfg)

	sw.phase(PhaseLocal)
	// Count local wedges and build the complete static send buffers.
	sendBufs := make([][]uint64, pe.P)
	nLoc := uint32(lg.NLocal())
	m := lazyMark(&state.emitMark, ori)
	for r := 0; r < lg.NLocal(); r++ {
		rv := int32(r)
		v := lg.GID(rv)
		av := ori.Out(rv)
		if len(av) < 2 {
			continue // a single out-neighbor cannot close a triangle
		}
		// Same stamped kernel as DITRIC's local sweep: A(v) marked once when
		// it has a local partner, each local A(u) probed against it.
		avRows := ori.OutRows(rv)
		stamped := avRows[0] < nLoc
		if stamped {
			m.Stamp(avRows)
		}
		lastRank := -1
		for _, u := range av {
			if lg.IsLocal(u) {
				state.countWedgeRows(m, rv, int32(u-lg.First), ori)
				continue
			}
			if j := pt.Rank(u); j != lastRank {
				sendBufs[j] = append(sendBufs[j], v, uint64(len(av)))
				sendBufs[j] = append(sendBufs[j], av...)
				lastRank = j
			}
		}
		if stamped {
			m.Unstamp()
		}
	}
	// Record the static buffer footprint (TriC's downfall).
	var buffered int64
	for _, b := range sendBufs {
		buffered += int64(len(b))
	}
	if buffered > pe.C.M.PeakBuffered {
		pe.C.M.PeakBuffered = buffered
	}

	sw.phase(PhaseGlobal)
	received := pe.C.DenseExchange(sendBufs)
	for src, words := range received {
		if src == pe.Rank {
			continue
		}
		for i := 0; i < len(words); {
			// A record is [v, |A(v)|, A(v)...]; a header or a list that runs
			// past the frame is a corrupt frame, never a slice out of range.
			rest := words[i:]
			if len(rest) < 2 || rest[1] > uint64(len(rest)-2) {
				panic(&comm.CorruptFrameError{Src: src, Reason: fmt.Sprintf(
					"tric record at word %d overruns the %d-word frame", i, len(words))})
			}
			n := int(rest[1])
			state.recvNeigh(rest[0], rest[2:2+n], ori)
			i += 2 + n
		}
	}
	sw.stop()
	state.finish(out)
	return nil
}
