package core

import (
	"math"

	"repro/internal/dist"
	"repro/internal/graph"
)

// tricBody reimplements the TriC baseline (Ghosh & Halappanavar) as the
// counting pipeline at δ = ∞: edges oriented by vertex ID only (no degree
// exchange, so hubs keep large out-neighborhoods), and *static*
// aggregation — every shipment is buffered in full and leaves in the final
// drain, one frame per peer. Peak queue memory is then the whole send
// volume, which grows superlinearly in the input: the paper's explanation
// for TriC's out-of-memory crashes. It ignores Threshold and Overlap (an
// eager flush would make the buffers un-static).
func tricBody(pe *dist.PE, pl *plan, lg *graph.LocalGraph, out *peOutcome, sw *stopwatch) error {
	cfg := pl.cfg
	cfg.Overlap = false
	pe.Q.SetThreshold(math.MaxInt)
	sw.phase(PhaseOrient)
	ori := graph.OrientLocalByIDPar(lg, cfg.Threads)
	// Without the degree orientation, hub rows keep their full
	// out-neighborhoods — exactly what the packed hub bitmaps are for. The
	// threshold is fixed; the degree-oriented engines build no hub index.
	ori.BuildHubsPar(graph.DefaultHubMinDegree, cfg.Threads)
	return ditricCount(pe, pl, cfg, lg, ori, allLight(lg), pe.C.Barrier, out, sw)
}
