package locate

import (
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/rand48"
)

// benchTapes builds the two cartridges the repo's benchmarks use: the
// model-development tape (serial 1, no personality) and a second
// cartridge (serial 2).
func benchTapes(t testing.TB) []*Model {
	t.Helper()
	pa := geometry.DLT4000()
	pa.PersonalityFrac = 0
	tapeA := geometry.MustGenerate(pa, 1)
	tapeB := geometry.MustGenerate(geometry.DLT4000(), 2)
	var models []*Model
	for _, tape := range []*geometry.Tape{tapeA, tapeB} {
		m, err := FromKeyPoints(tape.KeyPoints())
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// probeSegments returns a deterministic segment sample that hits every
// discontinuity of the locate function: each section boundary and its
// neighbors, plus a pseudorandom scattering.
func probeSegments(m *Model, extra int, seed int64) []int {
	seen := make(map[int]bool)
	var probes []int
	add := func(lbn int) {
		if lbn >= 0 && lbn < m.Segments() && !seen[lbn] {
			seen[lbn] = true
			probes = append(probes, lbn)
		}
	}
	v := m.View()
	for t := 0; t < v.Tracks(); t++ {
		tv := v.Track(t)
		for _, b := range tv.BoundLBN {
			add(b - 1)
			add(b)
			add(b + 1)
		}
	}
	rng := rand48.New(seed)
	for i := 0; i < extra; i++ {
		add(rng.Intn(m.Segments()))
	}
	return probes
}

// TestFastPathEquivalence proves the table-driven LocateTime, ReadTime
// and RewindTime agree bit-for-bit with the original piecewise
// decomposition on both bench tapes: exhaustively over all pairs of
// boundary-adjacent segments, and on a random sample.
func TestFastPathEquivalence(t *testing.T) {
	for ti, m := range benchTapes(t) {
		probes := probeSegments(m, 500, int64(ti)+3)
		t.Logf("tape %d: %d probe segments, %d pairs", ti, len(probes), len(probes)*len(probes))
		for _, src := range probes {
			for _, dst := range probes {
				got := m.LocateTime(src, dst)
				want := m.referenceLocateTime(src, dst)
				if got != want {
					t.Fatalf("tape %d: LocateTime(%d, %d) = %v, reference %v", ti, src, dst, got, want)
				}
			}
		}
		for _, lbn := range probes {
			if got, want := m.ReadTime(lbn), m.referenceReadTime(lbn); got != want {
				t.Fatalf("tape %d: ReadTime(%d) = %v, reference %v", ti, lbn, got, want)
			}
			p := m.View().Place(lbn)
			want := m.p.OverheadSec + m.p.ScanSecPerSection*p.Pos
			if p.Dir == geometry.Forward {
				want += m.p.ReverseSec
			}
			if got := m.RewindTime(lbn); got != want {
				t.Fatalf("tape %d: RewindTime(%d) = %v, reference %v", ti, lbn, got, want)
			}
		}
	}
}

// TestCostMatrixEquivalence proves the batched fill produces exactly
// LocateTime for every (src, dst) pair, including duplicates and the
// diagonal, on both bench tapes.
func TestCostMatrixEquivalence(t *testing.T) {
	for ti, m := range benchTapes(t) {
		rng := rand48.New(int64(ti) + 11)
		srcs := make([]int, 64)
		dsts := make([]int, 128)
		for i := range srcs {
			srcs[i] = rng.Intn(m.Segments())
		}
		for j := range dsts {
			dsts[j] = rng.Intn(m.Segments())
		}
		dsts[0] = srcs[0] // force a diagonal hit
		dsts[1] = dsts[2] // and a duplicate destination
		buf := make([]float64, len(srcs)*len(dsts))
		m.CostMatrix(buf, srcs, dsts)
		for i, s := range srcs {
			for j, d := range dsts {
				if got, want := buf[i*len(dsts)+j], m.LocateTime(s, d); got != want {
					t.Fatalf("tape %d: CostMatrix[%d,%d] = %v, LocateTime(%d,%d) = %v", ti, i, j, got, s, d, want)
				}
			}
		}
		// The generic fallback must agree as well.
		ref := make([]float64, len(buf))
		FillCostMatrix(m.Reference(), ref, srcs, dsts)
		for i := range buf {
			if buf[i] != ref[i] {
				t.Fatalf("tape %d: CostMatrix and reference fill disagree at %d: %v vs %v", ti, i, buf[i], ref[i])
			}
		}
	}
}

// TestPerturbedCostMatrix checks the batched perturbed fill against
// the per-call decorator, diagonal included.
func TestPerturbedCostMatrix(t *testing.T) {
	m := benchTapes(t)[0]
	pc := &Perturbed{Base: m, E: 10}
	rng := rand48.New(17)
	srcs := make([]int, 16)
	dsts := make([]int, 32)
	for i := range srcs {
		srcs[i] = rng.Intn(m.Segments())
	}
	for j := range dsts {
		dsts[j] = rng.Intn(m.Segments())
	}
	dsts[0] = srcs[0]
	buf := make([]float64, len(srcs)*len(dsts))
	pc.CostMatrix(buf, srcs, dsts)
	for i, s := range srcs {
		for j, d := range dsts {
			if got, want := buf[i*len(dsts)+j], pc.LocateTime(s, d); got != want {
				t.Fatalf("Perturbed CostMatrix[%d,%d] = %v, LocateTime(%d,%d) = %v", i, j, got, s, d, want)
			}
		}
	}
}

// BenchmarkCostMatrix measures the batched fill at the LOSS n=1024
// matrix shape.
func BenchmarkCostMatrix(b *testing.B) {
	m := benchTapes(b)[0]
	rng := rand48.New(5)
	n := 1025
	srcs := make([]int, n)
	dsts := make([]int, n)
	for i := 0; i < n; i++ {
		srcs[i] = rng.Intn(m.Segments())
		dsts[i] = rng.Intn(m.Segments())
	}
	buf := make([]float64, n*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CostMatrix(buf, srcs, dsts)
	}
	b.ReportMetric(float64(n*n), "cells")
}

// TestMotionMatchesParts pins the one-pass locate entry the drive
// emulator uses: on section-boundary probes and random segment pairs
// of both bench tapes and a personality-skewed truth view, Motion
// returns exactly LocateTime, Maneuver and the view's placements of
// both endpoints, the same pair included.
func TestMotionMatchesParts(t *testing.T) {
	models := benchTapes(t)
	models = append(models, NewModel(geometry.MustGenerate(geometry.DLT4000(), 3).TruthView()))
	for mi, m := range models {
		probes := probeSegments(m, 64, int64(11+mi))
		rng := rand48.New(int64(29 + mi))
		for i := 0; i < 4000; i++ {
			src, dst := probes[rng.Intn(len(probes))], rng.Intn(m.Segments())
			if i%2 == 0 {
				src, dst = dst, src
			}
			if i%97 == 0 {
				dst = src
			}
			got := m.Motion(src, dst)
			want := Motion{
				Sec:      m.LocateTime(src, dst),
				Maneuver: m.Maneuver(src, dst),
				From:     m.View().Place(src),
				To:       m.View().Place(dst),
			}
			if got != want {
				t.Fatalf("model %d: Motion(%d, %d) = %+v, parts give %+v", mi, src, dst, got, want)
			}
		}
	}
}
