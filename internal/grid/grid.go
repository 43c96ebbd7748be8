// Package grid is the one skeleton every experiment sweep runs on: a
// grid of independent cells, each simulated on its own, seeded from
// its own coordinates and recording into its own registry and tracer,
// so a sweep's output is a pure function of its configuration at any
// worker count. It also owns the two pieces of plumbing around a
// sweep: parsing an axis from a comma-separated flag, and splitting
// the finished cells into table blocks.
package grid

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"serpentine/internal/obs"
)

// Run calls cell(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS; the count is clamped to n). Cells
// are claimed in index order, and each cell writes only its own
// result slot, so the caller reads results in spec order regardless
// of which worker ran which cell.
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

// Capture is what a sweep records beyond its cells' results.
type Capture struct {
	// Reg, when non-nil, receives every cell's metrics, merged in
	// spec order after the parallel phase so the dump is identical at
	// any worker count.
	Reg *obs.Registry
	// SpanCap, when positive, gives every cell its own span tracer of
	// that capacity. Per-cell tracers keep each cell's spans — like
	// the metrics — byte-identical at any worker count.
	SpanCap int
}

// Probes is one cell's capture: its own registry (nil when the sweep
// has none) and its own tracer (nil when the sweep has no span cap).
type Probes struct {
	Reg   *obs.Registry
	Spans *obs.Tracer
}

// Sweep runs cell(i, probes) for every i in [0, n) as Run does, each
// cell recording into fresh probes, then merges the cells' registries
// into c.Reg in index (spec) order. A cell reads its spans off
// probes.Spans before it returns. Nothing is merged when a cell fails.
func (c Capture) Sweep(workers, n int, cell func(i int, p Probes) error) error {
	var regs []*obs.Registry
	if c.Reg != nil {
		regs = make([]*obs.Registry, n)
	}
	err := Run(workers, n, func(i int) error {
		var p Probes
		if regs != nil {
			p.Reg = obs.NewRegistry()
			regs[i] = p.Reg
		}
		if c.SpanCap > 0 {
			p.Spans = obs.NewTracer(c.SpanCap)
		}
		return cell(i, p)
	})
	if err != nil {
		return err
	}
	for _, r := range regs {
		c.Reg.Merge(r)
	}
	return nil
}

// Blocks splits items into blocks of equal key, in the order each key
// is first seen, keeping the items' order within a block: the "one
// table block per arrival rate" every sweep writer prints. Keys
// compare with ==, so +0 and -0 share a block.
func Blocks[T any, K comparable](items []T, key func(T) K) [][]T {
	var blocks [][]T
	at := make(map[K]int)
	for _, it := range items {
		k := key(it)
		b, ok := at[k]
		if !ok {
			b = len(blocks)
			at[k] = b
			blocks = append(blocks, nil)
		}
		blocks[b] = append(blocks[b], it)
	}
	return blocks
}

// AxisList parses a comma-separated sweep axis such as "60,120,240".
// Every value must parse, be finite and be at or above floor (pass
// math.SmallestNonzeroFloat64 to demand a positive float). An empty
// string yields a nil list, which every sweep config reads as "use
// the default axis".
func AxisList[T int | float64](s string, floor T) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(s, ",") {
		var v T
		var err error
		want := "an integer"
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(strings.TrimSpace(f))
		case *float64:
			want = "a finite number"
			*p, err = strconv.ParseFloat(strings.TrimSpace(f), 64)
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				err = strconv.ErrRange
			}
		}
		if err != nil {
			return nil, fmt.Errorf("value %q is not %s", f, want)
		}
		if v < floor {
			return nil, fmt.Errorf("value %q out of range", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// Seed derives one cell's seed from the sweep's base seed and up to
// three cell coordinates, each with its own positional weight. A
// sweep passes 0 for an axis its rows must replay across — every cell
// differing only in that coordinate then draws the same workload —
// and for an axis it does not have.
func Seed(base int64, a, b, c int) int64 {
	return base*1000003 + int64(a)*8191 + int64(b)*521 + int64(c)*131 + 7
}
