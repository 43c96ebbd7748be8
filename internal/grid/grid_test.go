package grid

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunIndexOrder(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, 8, n + 5, 0, -3} {
		out := make([]int, n)
		var calls atomic.Int64
		err := Run(workers, n, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		if err := Run(workers, 0, func(int) error {
			t.Fatal("cell called on an empty grid")
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// Cells 3 and 7 fail, and 7 fails first in wall time: Run must still
// report cell 3's error at every worker count.
func TestRunLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		err := Run(workers, 16, func(i int) error {
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond)
				return fmt.Errorf("cell %d", i)
			case 7:
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3" {
			t.Fatalf("workers=%d: err = %v, want cell 3", workers, err)
		}
	}
}

func TestRunStopsClaimingAfterFailure(t *testing.T) {
	const n = 200
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(workers, n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: %d of %d cells ran after cell 0 failed", workers, got, n)
		}
	}
}

// TestSeedCallShapes pins each sweep's call shape to the polynomial
// it hand-wrote before the sweeps shared this runner, so committed
// results keep their streams.
func TestSeedCallShapes(t *testing.T) {
	const s = int64(42)
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"server (rate, policy, alg)", Seed(s, 2, 3, 4), s*1000003 + 2*8191 + 3*521 + 4*131 + 7},
		{"tertiary (rate, drives, limit)", Seed(s, 1, 1, 2), s*1000003 + 1*8191 + 1*521 + 2*131 + 7},
		{"outage (mttf, mttr, -)", Seed(s, 3, 2, 0), s*1000003 + 3*8191 + 2*521 + 7},
		{"hsm (rate, -, -)", Seed(s, 2, 0, 0), s*1000003 + 2*8191 + 7},
		{"fleet (rate, shards, -)", Seed(s, 1, 3, 0), s*1000003 + 1*8191 + 3*521 + 7},
		{"chaos (alg, -, rate)", Seed(s, 5, 0, 2), s*1000003 + 5*8191 + 2*131 + 7},
	} {
		if c.got != c.want {
			t.Errorf("%s: Seed = %d, want %d", c.name, c.got, c.want)
		}
	}
}
