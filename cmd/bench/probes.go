package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

// The layer probes time calls into each package's exported functions on the
// workload's own graph, partition and frame sizes. They run after the traced
// reps, never inside a timed rep, and every call is recorded as a span.

// timeSpan runs fn inside a span and returns its wall in nanoseconds.
func timeSpan(tr *tracer, name string, fn func()) float64 {
	id := tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return float64(d.Nanoseconds())
}

// runProbes fills out with every probe-backed per-layer metric. agg is the
// comm aggregate of one of the workload's own reps, which sizes the frames.
func runProbes(w *workload, in *input, agg comm.Aggregate, rounds int, tr *tracer, out map[string]float64) error {
	oris := probeGraph(w, in, rounds, tr, out)
	probeIntersect(oris, rounds, tr, out)
	wire, err := probeBlock(w, in, rounds, tr, out)
	if err != nil {
		return err
	}
	probeStreamInsert(w, in, rounds, tr, out)
	if err := probeQueue(w, in, tr, out); err != nil {
		return err
	}
	if err := probeCollectives(w, wire, rounds, tr, out); err != nil {
		return err
	}
	frameWords, frameBytes := meanFrame(agg)
	if err := probeTransport(frameWords, frameBytes, rounds, tr, out); err != nil {
		return err
	}
	return probeSpawn(w, rounds, tr, out)
}

// probeGraph times the 1D preprocessing pipeline stage by stage, the way a
// PE body runs it, ranks back to back. ns/edge divides by the global m.
func probeGraph(w *workload, in *input, rounds int, tr *tracer, out map[string]float64) []*graph.LocalOriented {
	p, th := w.cfg.P, max(1, w.cfg.Threads)
	pt := part.Uniform(uint64(in.g.NumVertices()), p)
	var scatter, build, orient, contract []float64
	var oris []*graph.LocalOriented
	for round := 0; round < rounds; round++ {
		var per [][]graph.Edge
		scatter = append(scatter, timeSpan(tr, "graph.ScatterEdges", func() {
			per = graph.ScatterEdgesPar(pt, in.edges, th)
		}))
		locals := make([]*graph.LocalGraph, p)
		build = append(build, timeSpan(tr, "graph.BuildLocal", func() {
			for r := range locals {
				locals[r] = graph.BuildLocalPar(pt, r, per[r], th)
			}
		}))
		// Ghost degrees come straight from the global graph; the exchange
		// itself is communication and shows in core.phase_s.preprocess_degrees.
		for _, lg := range locals {
			for i, gid := range lg.Ghosts() {
				lg.SetGhostDegree(int32(lg.NLocal()+i), in.g.Degree(gid))
			}
		}
		oris = make([]*graph.LocalOriented, p)
		orient = append(orient, timeSpan(tr, "graph.OrientLocal", func() {
			for r, lg := range locals {
				oris[r] = graph.OrientLocalPar(lg, th)
				oris[r].BuildHubsPar(graph.DefaultHubMinDegree, th)
			}
		}))
		contract = append(contract, timeSpan(tr, "graph.Contract", func() {
			for _, o := range oris {
				o.ContractPar(th)
			}
		}))
	}
	m := float64(max(1, len(in.edges)))
	out["graph.scatter_ns_per_edge"] = median(scatter) / m
	out["graph.build_ns_per_edge"] = median(build) / m
	out["graph.orient_ns_per_edge"] = median(orient) / m
	out["graph.contract_ns_per_edge"] = median(contract) / m
	return oris
}

// probeIntersect replays CETRIC's local phase over every PE's oriented rows
// with CountRowPair. Words scanned and hits are exact counts; hits per word
// is the share of kernel work that found a triangle corner.
func probeIntersect(oris []*graph.LocalOriented, rounds int, tr *tracer, out map[string]float64) {
	var ns []float64
	var words, hits uint64
	for round := 0; round < rounds; round++ {
		words, hits = 0, 0
		ns = append(ns, timeSpan(tr, "graph.CountRowPair", func() {
			for _, o := range oris {
				for r := int32(0); r < int32(o.L.Rows()); r++ {
					av := o.OutRows(r)
					for _, u := range av {
						words += uint64(len(av) + o.OutDegree(int32(u)))
						hits += o.CountRowPair(r, int32(u))
					}
				}
			}
		}))
	}
	out["graph.intersect_words"] = float64(words)
	out["graph.intersect_ns_per_word"] = median(ns) / float64(max(1, words))
	out["graph.intersect_hits_per_word"] = float64(hits) / float64(max(1, words))
}

// probeBlock times the 2D build (scatter, block CSR, transpose) and returns
// rank 0's block in wire form, the payload of the Bcast probe.
func probeBlock(w *workload, in *input, rounds int, tr *tracer, out map[string]float64) ([]uint64, error) {
	p, th := w.cfg.P, max(1, w.cfg.Threads)
	g2, err := part.NewGrid2D(uint64(in.g.NumVertices()), p)
	if err != nil {
		return nil, err
	}
	var ns []float64
	var wire []uint64
	for round := 0; round < rounds; round++ {
		ns = append(ns, timeSpan(tr, "graph.BuildBlock2D", func() {
			per := graph.ScatterEdges2D(g2, in.edges, th)
			for r := 0; r < p; r++ {
				b := graph.BuildBlock2D(g2, r, per[r], th)
				b.Transpose(th)
				if r == 0 {
					wire = b.AppendWire(wire[:0])
				}
			}
		}))
	}
	out["graph.block_build_ns_per_edge"] = median(ns) / float64(max(1, len(in.edges)))
	return wire, nil
}

// probeStreamInsert ingests the edge list the way RunStream's PEs do: the
// first m/8 batch folded, seven more staged and committed. Scattering the
// batches is left outside the clock (graph.scatter_ns_per_edge has it).
func probeStreamInsert(w *workload, in *input, rounds int, tr *tracer, out map[string]float64) {
	p, th := w.cfg.P, max(1, w.cfg.Threads)
	pt := part.Uniform(uint64(in.g.NumVertices()), p)
	b := batchSize(len(in.edges))
	var batches [][][]graph.Edge
	for lo := 0; lo < len(in.edges); lo += b {
		batches = append(batches, graph.ScatterEdgesPar(pt, in.edges[lo:min(lo+b, len(in.edges))], th))
	}
	var ns []float64
	for round := 0; round < rounds; round++ {
		ns = append(ns, timeSpan(tr, "graph.StreamBuilder", func() {
			for r := 0; r < p; r++ {
				sb := graph.NewStreamBuilder(pt, r)
				for i, per := range batches {
					if i == 0 {
						sb.Fold(per[r], th)
						continue
					}
					sb.Stage(per[r], th)
					sb.Commit(th)
				}
			}
		}))
	}
	out["graph.stream_insert_ns_per_edge"] = median(ns) / float64(max(1, len(in.edges)))
}

// queueProbeWords caps what the queue probe ships, so its run time does not
// grow with the workload.
const queueProbeWords = 1 << 22

// probeQueue pushes the graph's own adjacency rows, as (v, N(v)) records,
// through a two-PE aggregating queue at the workload's threshold with the
// delta-varint codec, until quiescence: Send, overflow Flush, encode,
// decode, dispatch and the termination detector.
func probeQueue(w *workload, in *input, tr *tracer, out map[string]float64) error {
	g := in.g
	var words int
	var elapsed time.Duration
	id := tr.begin("comm.Queue")
	_, err := dist.Run(dist.Config{P: 2, Threshold: core.DefaultThreshold(g.NumEdges(), w.cfg.P)}, func(pe *dist.PE) error {
		pe.Q.SetCodec(0, comm.DeltaVarint)
		pe.Q.Handle(0, func(int, []uint64) {})
		pe.C.Barrier()
		if pe.Rank != 0 {
			pe.Q.Drain()
			return nil
		}
		t0 := time.Now()
		var rec []uint64
		for v := 0; v < g.NumVertices() && words < queueProbeWords; v++ {
			rec = append(append(rec[:0], uint64(v)), g.Neighbors(graph.Vertex(v))...)
			pe.Q.Send(0, 1, rec)
			words += len(rec)
		}
		pe.Q.Drain()
		elapsed = time.Since(t0)
		return nil
	})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("queue probe: %w", err)
	}
	ns := float64(elapsed.Nanoseconds())
	out["comm.queue_ns_per_word"] = ns / float64(max(1, words))
	out["comm.queue_mb_per_s"] = float64(8*words) / 1e6 / (ns / 1e9)
	return nil
}

// probeCollectives times Group.Bcast of one block (plus a one-word ack so a
// round ends when the receiver has decoded it) on a 2-member group, and
// AllreduceSum of one word at the workload's p.
func probeCollectives(w *workload, wire []uint64, rounds int, tr *tracer, out map[string]float64) error {
	var bcast []float64
	id := tr.begin("comm.Bcast")
	_, err := dist.Run(dist.Config{P: 2}, func(pe *dist.PE) error {
		grp, err := pe.C.NewGroup(1, []int{0, 1})
		if err != nil {
			return err
		}
		ack := []uint64{1}
		pe.C.Barrier()
		for i := 0; i < 5*rounds; i++ {
			if pe.Rank == 0 {
				t0 := time.Now()
				grp.Bcast(0, wire, comm.Varint)
				grp.Recycle(grp.Bcast(1, nil, comm.Varint))
				bcast = append(bcast, float64(time.Since(t0).Nanoseconds()))
			} else {
				grp.Recycle(grp.Bcast(0, nil, comm.Varint))
				grp.Bcast(1, ack, comm.Varint)
			}
		}
		return nil
	})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("bcast probe: %w", err)
	}
	out["comm.bcast_ns"] = median(bcast)

	iters := 100 * rounds
	var total time.Duration
	id = tr.begin("comm.AllreduceSum")
	_, err = dist.Run(dist.Config{P: w.cfg.P}, func(pe *dist.PE) error {
		pe.C.Barrier()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			pe.C.AllreduceSum([]uint64{1})
		}
		if pe.Rank == 0 {
			total = time.Since(t0)
		}
		return nil
	})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("allreduce probe: %w", err)
	}
	out["comm.allreduce_ns"] = float64(total.Nanoseconds()) / float64(iters)
	return nil
}

// recvWait polls ep until a frame arrives; the probes' peers always answer,
// so the deadline only turns a transport failure into an error.
func recvWait(ep transport.Endpoint) (transport.Frame, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if f, ok := ep.Recv(); ok {
			return f, nil
		}
		if time.Now().After(deadline) {
			return transport.Frame{}, errors.New("transport probe: no frame within 20s")
		}
		runtime.Gosched()
	}
}

// pingPong bounces one frame between two endpoints and returns the median
// round trip in nanoseconds. Word frames travel as Send, byte frames (the
// CRC-framed shape data traffic uses) as SendBytes; the frame that comes
// back is the one sent on, so the steady state allocates nothing.
func pingPong(nw transport.Network, byteFrames bool, size, iters int) (float64, error) {
	ep0, err := nw.Endpoint(0)
	if err != nil {
		return 0, err
	}
	ep1, err := nw.Endpoint(1)
	if err != nil {
		return 0, err
	}
	send := func(ep transport.Endpoint, dst int, f transport.Frame) error {
		if byteFrames {
			return ep.SendBytes(dst, f.Bytes)
		}
		return ep.Send(dst, f.Words)
	}
	const warm = 10
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < warm+iters; i++ {
			f, err := recvWait(ep1)
			if err == nil {
				err = send(ep1, 0, f)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	f := transport.Frame{Words: make([]uint64, size)}
	if byteFrames {
		f = transport.Frame{Bytes: make([]byte, size)}
	}
	var rtt []float64
	var loopErr error
	for i := 0; i < warm+iters; i++ {
		t0 := time.Now()
		if loopErr = send(ep0, 1, f); loopErr != nil {
			break
		}
		if f, loopErr = recvWait(ep0); loopErr != nil {
			break
		}
		if i >= warm {
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds()))
		}
	}
	if loopErr != nil {
		// The echo side ends on its own receive deadline once pings stop.
		<-echoErr
		return 0, loopErr
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return median(rtt), nil
}

// tcpStreamBytes is how much the one-way TCP throughput probe ships.
const tcpStreamBytes = 32 << 20

// tcpStream sends frames of size bytes one way over loopback TCP and
// returns MB/s from first send to the receiver's acknowledgement that the
// last byte arrived.
func tcpStream(nw transport.Network, size, total int) (float64, error) {
	ep0, err := nw.Endpoint(0)
	if err != nil {
		return 0, err
	}
	ep1, err := nw.Endpoint(1)
	if err != nil {
		return 0, err
	}
	frames := max(4, total/size)
	recvErr := make(chan error, 1)
	go func() {
		for got := 0; got < frames; got++ {
			f, err := recvWait(ep1)
			if err != nil {
				recvErr <- err
				return
			}
			transport.PutBuf(f.Bytes)
		}
		recvErr <- ep1.Send(0, []uint64{1})
	}()
	t0 := time.Now()
	var sendErr error
	for i := 0; i < frames && sendErr == nil; i++ {
		sendErr = ep0.SendBytes(1, transport.GetBuf(size)[:size])
	}
	if err := <-recvErr; err != nil || sendErr != nil {
		return 0, errors.Join(sendErr, err)
	}
	if _, err := recvWait(ep0); err != nil {
		return 0, err
	}
	return float64(frames*size) / 1e6 / time.Since(t0).Seconds(), nil
}

// meanFrame returns the workload's mean data-frame size in words and in
// encoded bytes, the sizes the comm and transport probes are run at.
func meanFrame(a comm.Aggregate) (words, bytes int) {
	if a.TotalFrames == 0 {
		return 1, 8
	}
	return max(1, int(a.TotalWords/a.TotalFrames)), max(8, int(a.TotalEncodedBytes/a.TotalFrames))
}

// probeTransport measures the raw endpoints under the comm layer at the
// workload's mean frame size: channel and loopback-TCP round trips, one-way
// TCP throughput, and the faults the TCP endpoints absorbed meanwhile.
func probeTransport(frameWords, frameBytes, rounds int, tr *tracer, out map[string]float64) error {
	iters := 200 * rounds
	id := tr.begin("transport.chan_rtt")
	cn := transport.NewChanNetwork(2)
	rtt, err := pingPong(cn, false, frameWords, iters)
	cn.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	out["transport.chan_rtt_ns"] = rtt

	tn, err := transport.NewLoopbackTCPNetwork(2)
	if err != nil {
		return err
	}
	defer tn.Close()
	id = tr.begin("transport.tcp_rtt")
	rtt, err = pingPong(tn, true, frameBytes, iters)
	tr.end(id)
	if err != nil {
		return err
	}
	out["transport.tcp_rtt_us"] = rtt / 1e3

	total := tcpStreamBytes
	if rounds == 1 {
		total /= 8
	}
	id = tr.begin("transport.tcp_stream")
	mbs, err := tcpStream(tn, frameBytes, total)
	tr.end(id)
	if err != nil {
		return err
	}
	out["transport.tcp_mb_per_s"] = mbs
	ep0, _ := tn.Endpoint(0)
	ep1, _ := tn.Endpoint(1)
	out["transport.tcp_faults"] = float64(totalFaults([]transport.Endpoint{ep0, ep1}))
	return nil
}

// probeSpawn times dist.Run with an empty body at the workload's p: the
// floor every count pays to start and join its PEs.
func probeSpawn(w *workload, rounds int, tr *tracer, out map[string]float64) error {
	var us []float64
	id := tr.begin("dist.Run")
	defer tr.end(id)
	for i := 0; i < 20*rounds; i++ {
		t0 := time.Now()
		if _, err := dist.Run(dist.Config{P: w.cfg.P}, func(*dist.PE) error { return nil }); err != nil {
			return fmt.Errorf("spawn probe: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out["dist.spawn_join_us"] = median(us)
	return nil
}
