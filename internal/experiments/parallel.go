package experiments

// Parallel sweep runner. Experiment cells are embarrassingly parallel —
// every cell (and every repetition) runs on its own sim.Engine, rng.Source
// and Profiler, sharing nothing — so a worker pool turns an N-cell sweep
// into wall-clock N/workers without touching determinism: each cell's seed
// is derived from its index exactly as in a serial run, and results land
// in an index-addressed slice, so output is byte-identical for any worker
// count.

import (
	"sync"
	"sync/atomic"
)

// parallelism is the worker budget for RunCells; 1 runs cells inline.
var parallelism = 1

// SetParallelism sets the worker count used by RunCells (and therefore by
// the staging, service and throughput sweeps). Values below 1 clamp to 1.
// cmd/rpbench exposes it as -parallel.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}

// RunCells invokes run(i) for every i in [0, n), on up to SetParallelism
// workers. Cells must not share mutable state; each run(i) should write
// its result to slot i of a pre-sized slice, which keeps output ordering
// (and any later floating-point folds) identical to the serial run.
func RunCells(n int, run func(i int)) {
	w := parallelism
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}
