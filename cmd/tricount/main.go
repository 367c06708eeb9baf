// Command tricount counts triangles (and optionally local clustering
// coefficients) on generated or file-based graphs with any of the
// implemented algorithms.
//
// Examples:
//
//	tricount -gen rmat -n 65536 -algo cetric -p 16
//	tricount -input graph.txt -algo cetric2 -p 8 -threads 4
//	tricount -gen rhg -n 16384 -algo cetric -p 4 -approx -bits 8
//	tricount -gen rgg2d -n 4096 -algo ditric -p 8   # the wire: line gives raw vs encoded bytes
//	tricount -gen rmat -n 65536 -algo ditric -p 4 -cpuprofile cpu.pprof
//	tricount -gen rmat -n 16384 -algo cetric -p 4 -stream -memprofile mem.pprof -trace run.trace
//
// Multi-process TCP mode (run once per rank, same -peers list):
//
//	tricount -gen rmat -n 65536 -algo cetric -tcp-rank 0 -peers :9000,:9001
//	tricount -gen rmat -n 65536 -algo cetric -tcp-rank 1 -peers :9000,:9001
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tricount: %v\n", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		genFamily  = flag.String("gen", "", "generator family: gnm|rmat|rgg2d|rhg")
		input      = flag.String("input", "", "edge list file (text: 'u v' per line)")
		n          = flag.Int("n", 1<<14, "vertices for -gen")
		edgeFactor = flag.Int("ef", 16, "edge factor m/n for -gen")
		seed       = flag.Uint64("seed", 42, "generator seed")

		algoName  = flag.String("algo", "cetric", "algorithm: seq (the SeqCount oracle, not a baseline)|ditric|ditric2|cetric|cetric2|tk2d|tric|noagg (ditric2/cetric2: indirect delivery; noagg: ditric with -delta 1; tk2d factors any -p into an r×c grid)")
		p         = flag.Int("p", 8, "number of PEs")
		threshold = flag.Int("delta", 0, "aggregation threshold δ in words (0 = O(|E_i|))")
		threads   = flag.Int("threads", 1, "threads per PE (hybrid counting + parallel preprocessing)")
		overlap   = flag.Bool("overlap", false, "overlapped schedule of the DITRIC/CETRIC counting pipeline: eager shipments + polling/stealing between row chunks instead of the barriered schedule")
		lcc       = flag.Bool("lcc", false, "compute local clustering coefficients")

		approx = flag.Bool("approx", false, "AMQ-approximate counting: the CETRIC pipeline shipping Bloom filters (-algo cetric or cetric2), printing exact type-1/2 plus a type-3 estimate with the expected false positives subtracted; -threads and -overlap apply")
		bits   = flag.Float64("bits", 8, "Bloom filter bits per neighbor for -approx, at most 64 (≤ 0 = 8): more bits ship more words for a closer type-3 estimate")

		stream = flag.Bool("stream", false, "streaming ingestion + incremental delta-counting (DITRIC/CETRIC)")
		batch  = flag.Int("batch", 0, "edge batch size for -stream (0 = max(1024, m/8))")

		tcpRank = flag.Int("tcp-rank", -1, "run as one rank of a TCP cluster (multi-process mode)")
		peers   = flag.String("peers", "", "comma-separated listen addresses of all ranks")

		verbose    = flag.Bool("v", false, "print per-phase and per-PE details")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the count (graph construction excluded) to this file; read it with 'go tool pprof -top'")
		memProfile = flag.String("memprofile", "", "write an allocation profile of the count (every allocation since process start, graph construction included) to this file; read it with 'go tool pprof -sample_index=alloc_space -top' (or inuse_space for what is still live)")
		traceFile  = flag.String("trace", "", "write a runtime execution trace of the count to this file; open it with 'go tool trace'")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkModeFlags(set, *algoName, *stream, *approx, *batch); err != nil {
		return err
	}

	// Resolve the algorithm and reject what it cannot run before the graph
	// is built: a misspelt -algo must not cost a full generation first.
	cfg := core.Config{
		P: *p, Threshold: *threshold, Threads: *threads, Overlap: *overlap,
		LCC: *lcc,
	}
	var algo core.Algorithm
	if *algoName == "seq" {
		if *approx || *stream {
			return fmt.Errorf("-approx and -stream need a distributed algorithm, not seq")
		}
	} else {
		if algo, err = resolveAlgo(*algoName, *approx, &cfg); err != nil {
			return err
		}
		if *tcpRank >= 0 {
			if err := checkTCPRank(map[string]bool{
				"approx": *approx, "stream": *stream, "lcc": *lcc,
			}); err != nil {
				return err
			}
		}
		if *stream && (*lcc || *approx) {
			return fmt.Errorf("-stream is incompatible with -lcc and -approx")
		}
	}

	loadStart := time.Now()
	g, err := buildGraph(*genFamily, *input, *n, *edgeFactor, *seed)
	if err != nil {
		return err
	}
	load := time.Since(loadStart)
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
	if *verbose {
		how := "generate"
		if *input != "" {
			how = "read and build"
		}
		fmt.Printf("load: %v (%s)\n", load.Round(time.Microsecond), how)
	}

	// Every path below — one-shot, -stream, estimators, a TCP rank — runs
	// inside the profiles; each is written out when run returns.
	for _, pr := range []struct {
		flag, file string
		start      func(*os.File) (stop func() error, err error)
	}{
		{"-cpuprofile", *cpuProfile, func(f *os.File) (func() error, error) {
			return func() error { pprof.StopCPUProfile(); return nil }, pprof.StartCPUProfile(f)
		}},
		{"-trace", *traceFile, func(f *os.File) (func() error, error) {
			return func() error { trace.Stop(); return nil }, trace.Start(f)
		}},
		{"-memprofile", *memProfile, func(f *os.File) (func() error, error) {
			return func() error {
				runtime.GC() // heap profiles report as of the last completed collection
				return pprof.Lookup("allocs").WriteTo(f, 0)
			}, nil
		}},
	} {
		if pr.file == "" {
			continue
		}
		f, cerr := os.Create(pr.file)
		if cerr != nil {
			return fmt.Errorf("%s: %w", pr.flag, cerr)
		}
		stop, serr := pr.start(f)
		if serr != nil {
			f.Close() // nothing was written; the start failure is the error to report
			return fmt.Errorf("%s: %w", pr.flag, serr)
		}
		name := pr.flag
		defer func() {
			werr := stop()
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil && err == nil {
				err = fmt.Errorf("%s: %w", name, werr)
			}
		}()
	}

	if *algoName == "seq" {
		start := time.Now()
		count := core.SeqCount(g)
		// SeqCount is the independent oracle the tests check against, slower
		// than the p = 1 pipeline: its time is no baseline to divide by.
		fmt.Printf("triangles: %d (SeqCount oracle, not a baseline, %v)\n", count, time.Since(start).Round(time.Microsecond))
		if *lcc {
			printLCCSummary(core.SeqLCC(g))
		}
		return nil
	}

	if *tcpRank >= 0 {
		return runTCPRank(g, algo, cfg, *tcpRank, *peers)
	}

	if *stream {
		return runStream(g, *algoName, algo, cfg, *batch, *verbose)
	}

	if *approx {
		res, err := core.RunApproxCetric(g, cfg, core.AMQConfig{BitsPerKey: *bits})
		if err != nil {
			return err
		}
		fmt.Printf("estimate: %.0f (exact type-1/2: %d, corrected type-3: %.0f) in %v\n",
			res.Estimate, res.Exact12, res.Type3Estimate, res.Wall.Round(time.Microsecond))
		printComm(res.Agg)
		return nil
	}

	res, err := core.Run(algo, g, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("triangles: %d in %v (p=%d, algo=%s)\n", res.Count, res.Wall.Round(time.Microsecond), *p, *algoName)
	if res.TypeCounts != [3]uint64{} {
		fmt.Printf("types: local=%d two-PE=%d three-PE=%d\n", res.TypeCounts[0], res.TypeCounts[1], res.TypeCounts[2])
	}
	printComm(res.Agg)
	if algo == core.AlgoTK2D {
		if g2, err := part.NewGrid2D(uint64(g.NumVertices()), *p); err == nil {
			fmt.Printf("grid: %d×%d (%d rounds)\n", g2.R(), g2.C(), g2.Rounds())
		}
	}
	if *verbose {
		printPhases(res)
		printActivity(res.PerPE)
	}
	if *lcc {
		printLCCSummary(res.LCC)
	}
	return nil
}

// algoVariant is one -algo name: an engine plus the config bits the name
// stands for. ditric2 and cetric2 are DITRIC and CETRIC with indirect
// delivery; noagg is DITRIC with δ = 1, Fig. 2's unbuffered baseline.
type algoVariant struct {
	name     string
	algo     core.Algorithm
	indirect bool
	noAgg    bool
}

var algoVariants = []algoVariant{
	{name: "ditric", algo: core.AlgoDiTric},
	{name: "ditric2", algo: core.AlgoDiTric, indirect: true},
	{name: "cetric", algo: core.AlgoCetric},
	{name: "cetric2", algo: core.AlgoCetric, indirect: true},
	{name: "tric", algo: core.AlgoTriC},
	{name: "noagg", algo: core.AlgoDiTric, noAgg: true},
	{name: "tk2d", algo: core.AlgoTK2D},
}

// resolveAlgo looks -algo up in algoVariants (every name but seq) and sets
// its config bits on cfg: ditric2 and cetric2 are indirect delivery, noagg
// is ditric with -delta 1. AMQ-approximate counting is the CETRIC pipeline,
// so with approx set only cetric and cetric2 resolve; any other name is an
// error naming it rather than a silent CETRIC run.
func resolveAlgo(name string, approx bool, cfg *core.Config) (core.Algorithm, error) {
	i := slices.IndexFunc(algoVariants, func(v algoVariant) bool { return v.name == name })
	if i < 0 {
		return "", fmt.Errorf("unknown algorithm %q", name)
	}
	v := algoVariants[i]
	if approx && v.algo != core.AlgoCetric {
		return "", fmt.Errorf("-approx runs the CETRIC pipeline: -algo %s is not cetric or cetric2", name)
	}
	if v.noAgg {
		if cfg.Threshold != 0 && cfg.Threshold != 1 {
			return "", fmt.Errorf("-algo %s -delta %d: noagg is ditric with δ = 1", name, cfg.Threshold)
		}
		cfg.Threshold = 1
	}
	cfg.Indirect = v.indirect
	return v.algo, nil
}

// checkTCPRank rejects the set flags a -tcp-rank process cannot honour:
// core.RunRank counts exactly and returns only the global count.
func checkTCPRank(set map[string]bool) error {
	for _, name := range []string{"approx", "stream", "lcc"} {
		if set[name] {
			return fmt.Errorf("-tcp-rank does not support -%s", name)
		}
	}
	return nil
}

// checkModeFlags rejects the set flags the chosen mode would ignore or
// misread: -batch without -stream, -bits without -approx, -overlap with an
// algorithm that has no overlapped schedule, and a negative -batch (0
// already picks the default size).
func checkModeFlags(set map[string]bool, algo string, stream, approx bool, batch int) error {
	if set["batch"] && !stream {
		return fmt.Errorf("-batch needs -stream")
	}
	if set["bits"] && !approx {
		return fmt.Errorf("-bits needs -approx")
	}
	if set["overlap"] && (algo == "tk2d" || algo == "tric" || algo == "seq") {
		return fmt.Errorf("-overlap needs a DITRIC or CETRIC counting pipeline, not -algo %s", algo)
	}
	if batch < 0 {
		return fmt.Errorf("-batch %d is negative (0 picks the default size)", batch)
	}
	return nil
}

// runStream feeds the graph's edges through the streaming driver: the first
// batch seeds the incrementally built initial graph, the rest are inserted
// and delta-counted. The final count matches the one-shot run exactly. name
// is the -algo the run reports.
func runStream(g *graph.Graph, name string, algo core.Algorithm, cfg core.Config, batch int, verbose bool) error {
	initial, inserts, batch := core.SplitStream(g.Edges(), batch)
	start := time.Now()
	sres, err := core.RunStream(algo, uint64(g.NumVertices()), initial, inserts, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("triangles: %d in %v (streamed: initial %d + %d batches of ≤%d edges, algo=%s)\n",
		sres.Count, time.Since(start).Round(time.Microsecond), sres.Initial, len(sres.Deltas), batch, name)
	printComm(sres.Res.Agg)
	if verbose {
		for b, d := range sres.Deltas {
			fmt.Printf("  batch %-4d Δtriangles=%d\n", b, d)
		}
		printPhases(sres.Res)
	}
	return nil
}

func buildGraph(family, input string, n, ef int, seed uint64) (*graph.Graph, error) {
	switch {
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeListText(f)
	case family != "":
		return gen.ByFamily(family, n, ef, seed)
	default:
		return nil, fmt.Errorf("need one of -gen or -input")
	}
}

func printComm(agg comm.Aggregate) {
	fmt.Printf("comm: frames(max/total)=%s/%s volume(max/total words)=%s/%s peak-buffer(max)=%s\n",
		human(agg.MaxSentFrames), human(agg.TotalFrames),
		human(agg.MaxPayloadWords), human(agg.TotalPayload), human(agg.MaxPeakBuffered))
	fmt.Printf("wire: bytes(raw/encoded)=%s/%s compression=%.2fx\n",
		human(agg.TotalRawBytes), human(agg.TotalEncodedBytes), agg.CompressionRatio())
}

func human(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// printPhases lists the non-zero phase walls in stable sorted order;
// sub-phases (keys like "preprocess/build") sort directly after their parent
// phase and print indented beneath it.
func printPhases(res *core.Result) {
	names := make([]string, 0, len(res.Phases))
	for name, d := range res.Phases {
		if d != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if _, sub, isSub := strings.Cut(name, "/"); isSub {
			fmt.Printf("    · %-14s %v\n", sub, res.Phases[name].Round(time.Microsecond))
		} else {
			fmt.Printf("  phase %-12s %v\n", name, res.Phases[name].Round(time.Microsecond))
		}
	}
}

// printActivity leads with the activity-skew summary — the max/mean ratio
// of per-rank receive-side intersection work (deterministic, so it shows
// how unevenly the 1D partition spreads the global phase) plus the worst
// idle wait — then lists each
// rank's realized overlap (receive work done while still emitting — CPU
// time summed over the rank's workers, so it can exceed wall time) and idle
// wait (termination-detector wall time with nothing to steal).
func printActivity(per []comm.Metrics) {
	if sk := dist.ActivitySkew(per); sk.Ratio > 0 {
		fmt.Printf("  recv-work skew: max/mean=%.2fx (max=%s mean=%s words), max-idle=%v\n",
			sk.Ratio, human(sk.MaxRecvWork), human(int64(sk.MeanRecvWork)),
			sk.MaxIdle.Round(time.Microsecond))
	}
	for _, a := range dist.Activity(per) {
		if a.Overlap == 0 && a.Idle == 0 {
			continue
		}
		fmt.Printf("  rank %-3d overlap(cpu)=%-10v idle=%v\n",
			a.Rank, a.Overlap.Round(time.Microsecond), a.Idle.Round(time.Microsecond))
	}
}

func printLCCSummary(lcc []float64) {
	if len(lcc) == 0 {
		return
	}
	var sum float64
	for _, v := range lcc {
		sum += v
	}
	fmt.Printf("lcc: mean=%.4f over %d vertices\n", sum/float64(len(lcc)), len(lcc))
}

// runTCPRank executes a single rank of a multi-process TCP cluster. Every
// process generates the same deterministic graph and keeps only its part, so
// no input distribution is needed.
func runTCPRank(g *graph.Graph, algo core.Algorithm, cfg core.Config, rank int, peerList string) error {
	addrs := strings.Split(peerList, ",")
	if len(addrs) < 2 {
		return fmt.Errorf("-peers needs at least two comma-separated addresses")
	}
	if rank >= len(addrs) {
		return fmt.Errorf("-tcp-rank %d out of range for %d peers", rank, len(addrs))
	}
	cfg.P = len(addrs)
	ep, err := transport.ListenTCP(rank, addrs, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer ep.Close()
	start := time.Now()
	count, m, err := core.RunRank(algo, g, cfg, ep)
	if err != nil {
		return err
	}
	fmt.Printf("rank %d/%d: global triangles = %d in %v (this rank sent %d frames, %d payload words)\n",
		rank, len(addrs), count, time.Since(start).Round(time.Millisecond), m.SentFrames, m.PayloadWords)
	return nil
}
