// Package grid runs experiment sweeps: a grid of independent cells,
// each simulated on its own and seeded from its own coordinates, so a
// sweep's output is a pure function of its configuration at any
// worker count.
package grid

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls cell(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS; the count is clamped to n). Cells
// are claimed in index order, and each cell writes only its own
// result slot, so the caller reads results and merges per-cell
// registries in spec order regardless of which worker ran which cell.
//
// After any cell fails no new cells are claimed, and Run returns the
// error of the lowest failing index. Every index below a failing one
// was claimed before it and runs to completion, so that error is the
// same at any worker count.
func Run(workers, n int, cell func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = cell(i); errs[i] != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Seed derives one cell's seed from the sweep's base seed and up to
// three cell coordinates, each with its own positional weight. A
// sweep passes 0 for an axis its rows must replay across — every cell
// differing only in that coordinate then draws the same workload —
// and for an axis it does not have.
func Seed(base int64, a, b, c int) int64 {
	return base*1000003 + int64(a)*8191 + int64(b)*521 + int64(c)*131 + 7
}
