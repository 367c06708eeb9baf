package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Hybrid-threaded preprocessing support: the builders in this package
// (ScatterEdgesPar, buildRows, the orientations, ContractPar, BuildHubs)
// are all structured as fused two-pass counting layouts — a parallel count
// pass, a sequential prefix sum over the counts, and a parallel placement
// pass into the exact-size output. The passes run over the same
// chunk-stealing worker model as core's hybrid local phase, so a rank's
// preprocessing uses the same thread budget as its counting phases.
//
// Every builder is deterministic in its result regardless of the thread
// count: placement order within a row may vary, but each row is sorted and
// deduplicated afterwards, so Threads > 1 produces byte-identical graphs to
// the sequential path.

// parallelChunk is the default number of items per stolen chunk; coarse
// enough that the atomic chunk counter never becomes the bottleneck.
const parallelChunk = 1024

// ParallelFor exposes the chunk-stealing worker loop to the packages above
// (core's ghost-degree reply construction reuses it): fn runs over [0, n)
// in dynamically stolen chunks of the default size, receiving the worker
// index for per-worker scratch and a half-open item range. One worker (or
// n small enough for one chunk) runs inline on the caller's goroutine; a
// panic in any worker is re-raised on the caller.
func ParallelFor(threads, n int, fn func(worker, lo, hi int)) {
	parallelFor(threads, n, parallelChunk, fn)
}

// workersFor returns the number of workers parallelFor will actually use:
// never more than one per chunk, never less than one. Callers allocating
// per-worker scratch size it with this.
func workersFor(threads, n, chunk int) int {
	if threads < 1 {
		threads = 1
	}
	if chunks := (n + chunk - 1) / chunk; threads > chunks {
		threads = chunks
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// parallelFor runs fn over [0, n) in dynamically stolen chunks. fn receives
// the worker index (for per-worker scratch) and a half-open item range.
// With one worker the single call fn(0, 0, n) runs inline on the caller's
// goroutine — the sequential path pays no goroutine, channel, or atomic
// cost. A panic in any worker is re-raised on the caller.
func parallelFor(threads, n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := workersFor(threads, n, chunk)
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	for t := 0; t < w; t++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && panicked.CompareAndSwap(false, true) {
					panicVal = r
				}
			}()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(t)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// parallelBlocks splits [0, n) into one contiguous block per worker
// (static partitioning). Used where the output order must be a
// deterministic function of the input order — per-worker histograms plus
// worker-major placement reproduce the sequential layout exactly, which
// chunk stealing cannot guarantee. workers must come from workersFor.
func parallelBlocks(workers, n int, fn func(worker, lo, hi int)) {
	runBlocks(workers, n, func(w int) (int, int) { return blockRange(w, workers, n) }, fn)
}

// parallelRows is parallelBlocks over the rows of the offsets off, cut so
// that each worker's block holds about an equal share of the entries.
func parallelRows(workers int, off []int64, fn func(worker, lo, hi int)) {
	n := len(off) - 1
	cut := func(w int) int {
		if w == workers {
			return n
		}
		share := off[n] / int64(workers) * int64(w)
		i, _ := slices.BinarySearch(off[:n], share)
		return i
	}
	runBlocks(workers, n, func(w int) (int, int) { return cut(w), cut(w + 1) }, fn)
}

// runBlocks runs fn on the block of each worker, as block gives it, on
// goroutines but for a single worker.
func runBlocks(workers, n int, block func(w int) (lo, hi int), fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	for t := 0; t < workers; t++ {
		lo, hi := block(t)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && panicked.CompareAndSwap(false, true) {
					panicVal = r
				}
			}()
			fn(worker, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// blockRange returns worker w's contiguous share of [0, n) when split over
// `workers` near-equal blocks (the first n mod workers blocks get one extra).
func blockRange(w, workers, n int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}
