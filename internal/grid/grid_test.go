package grid

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"serpentine/internal/obs"
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

// Every cell records into its own registry and tracer; the registries
// merge in spec order, so the dump and each cell's spans are the same
// at any worker count.
func TestCaptureSweepPerCell(t *testing.T) {
	const n = 12
	render := func(workers int) (string, [][]obs.Span) {
		t.Helper()
		reg := obs.NewRegistry()
		spans := make([][]obs.Span, n)
		err := Capture{Reg: reg, SpanCap: 4}.Sweep(workers, n, func(i int, p Probes) error {
			if p.Reg == nil || p.Spans == nil {
				return fmt.Errorf("cell %d: missing probes %+v", i, p)
			}
			p.Reg.Counter("cells_total", obs.L("cell", strconv.Itoa(i))).Add(int64(i))
			p.Reg.Counter("all_total").Add(1)
			tr := p.Spans.StartTrace()
			for k := 0; k <= i%3; k++ {
				tr.Start("op", nil, float64(i+k)).End(float64(i + k + 1))
			}
			spans[i] = p.Spans.Spans()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), spans
	}
	d1, s1 := render(1)
	d8, s8 := render(8)
	if d1 != d8 {
		t.Fatalf("merged dump differs between 1 and 8 workers:\n%s\n---\n%s", d1, d8)
	}
	if !strings.Contains(d1, "all_total 12") {
		t.Fatalf("merged dump lacks every cell:\n%s", d1)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Fatal("per-cell spans differ between 1 and 8 workers")
	}
	for i, sp := range s1 {
		if len(sp) != i%3+1 {
			t.Fatalf("cell %d: %d spans, want %d (tracers shared?)", i, len(sp), i%3+1)
		}
	}
}

func TestCaptureSweepZeroValue(t *testing.T) {
	err := Capture{}.Sweep(4, 5, func(i int, p Probes) error {
		if p.Reg != nil || p.Spans != nil {
			return fmt.Errorf("cell %d: probes %+v on an uncaptured sweep", i, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCaptureSweepFailureMergesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	boom := errors.New("boom")
	err := Capture{Reg: reg}.Sweep(2, 6, func(i int, p Probes) error {
		p.Reg.Counter("ran_total").Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	var b bytes.Buffer
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "ran_total") {
		t.Fatalf("a failed sweep merged metrics:\n%s", b.String())
	}
}

func TestBlocks(t *testing.T) {
	type cell struct {
		rate float64
		id   int
	}
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name  string
		cells []cell
		want  [][]int
	}{
		{"empty", nil, nil},
		{"one block", []cell{{60, 0}, {60, 1}}, [][]int{{0, 1}}},
		{"first-seen order", []cell{{240, 0}, {60, 1}, {120, 2}}, [][]int{{0}, {1}, {2}}},
		{"interleaved keeps cell order", []cell{{120, 0}, {60, 1}, {120, 2}, {60, 3}, {120, 4}},
			[][]int{{0, 2, 4}, {1, 3}}},
		{"+0 and -0 share a block", []cell{{0, 0}, {5, 1}, {negZero, 2}}, [][]int{{0, 2}, {1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got [][]int
			for _, b := range Blocks(c.cells, func(c cell) float64 { return c.rate }) {
				var ids []int
				for _, x := range b {
					ids = append(ids, x.id)
				}
				got = append(got, ids)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("blocks %v, want %v", got, c.want)
			}
		})
	}
}

func TestAxisList(t *testing.T) {
	for _, c := range []struct {
		in   string
		min  float64
		want []float64
		ok   bool
	}{
		{"", 0, nil, true},
		{"60,120, 240", 0, []float64{60, 120, 240}, true},
		{"0,0.5", 0, []float64{0, 0.5}, true},
		{"0", math.SmallestNonzeroFloat64, nil, false},
		{"-1", 0, nil, false},
		{"NaN", 0, nil, false},
		{"1,+Inf", 0, nil, false},
		{"-Inf", math.Inf(-1), nil, false},
		{"1e400", 0, nil, false},
		{"1,,2", 0, nil, false},
		{"x", 0, nil, false},
	} {
		got, err := AxisList(c.in, c.min)
		if (err == nil) != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("AxisList(%q, %g) = %v, %v; want %v, ok=%v", c.in, c.min, got, err, c.want, c.ok)
		}
	}
	for _, c := range []struct {
		in   string
		min  int
		want []int
		ok   bool
	}{
		{"1,2", 1, []int{1, 2}, true},
		{" 16 ,0", 0, []int{16, 0}, true},
		{"0", 1, nil, false},
		{"1.5", 0, nil, false},
		{"NaN", 0, nil, false},
	} {
		got, err := AxisList(c.in, c.min)
		if (err == nil) != c.ok || !reflect.DeepEqual(got, c.want) {
			t.Errorf("AxisList(%q, %d) = %v, %v; want %v, ok=%v", c.in, c.min, got, err, c.want, c.ok)
		}
	}
}

// FuzzAxisList checks the CLI list parser on arbitrary flag text:
// it never panics, every accepted value is finite and at or above the
// floor, and an accepted list re-rendered and re-joined parses back
// to the same values.
func FuzzAxisList(f *testing.F) {
	for _, s := range []string{"", "60,120,240", "1,16,0", "0, 0.5 ,1", "NaN", "+Inf", "1e400", "-0", ",", "0x1p-3", "1_000"} {
		f.Add(s, 0.0, 0)
	}
	f.Add("3", math.SmallestNonzeroFloat64, 1)
	f.Fuzz(func(t *testing.T, s string, floorF float64, floorI int) {
		fs, err := AxisList(s, floorF)
		if err == nil {
			parts := make([]string, len(fs))
			for i, v := range fs {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < floorF {
					t.Fatalf("AxisList(%q, %g) accepted %g", s, floorF, v)
				}
				parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			back, err := AxisList(strings.Join(parts, ","), floorF)
			if err != nil || !reflect.DeepEqual(back, fs) {
				t.Fatalf("float round trip of %q: %v -> %v, %v", s, fs, back, err)
			}
		}
		is, err := AxisList(s, floorI)
		if err == nil {
			parts := make([]string, len(is))
			for i, v := range is {
				if v < floorI {
					t.Fatalf("AxisList(%q, %d) accepted %d", s, floorI, v)
				}
				parts[i] = strconv.Itoa(v)
			}
			back, err := AxisList(strings.Join(parts, ","), floorI)
			if err != nil || !reflect.DeepEqual(back, is) {
				t.Fatalf("int round trip of %q: %v -> %v, %v", s, is, back, err)
			}
		}
	})
}
