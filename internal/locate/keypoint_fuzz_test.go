package locate

import (
	"bytes"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/rand48"
)

// keyPointTable builds a table with SectionsPerTrack+1 boundaries per
// track from fuzz bytes: each section holds 1 + counts[i] segments
// (one segment when counts is empty), and section wideAt is scaled up
// by 2^(wideShift%48) so section sizes can differ by many orders of
// magnitude.
func keyPointTable(tracks, spt uint8, counts []byte, wideAt, wideShift uint8) *geometry.KeyPointTable {
	p := geometry.Tiny()
	p.Tracks = 1 + int(tracks)%4
	p.SectionsPerTrack = 2 + int(spt)%5
	nsec := p.Tracks * p.SectionsPerTrack
	kp := &geometry.KeyPointTable{Params: p}
	lbn := 0
	for t := 0; t < p.Tracks; t++ {
		b := []int{lbn}
		for l := 0; l < p.SectionsPerTrack; l++ {
			i := t*p.SectionsPerTrack + l
			c := 1
			if len(counts) > 0 {
				c += int(counts[i%len(counts)])
			}
			if i == int(wideAt)%nsec {
				c <<= wideShift % 48
			}
			lbn += c
			b = append(b, lbn)
		}
		kp.Bound = append(kp.Bound, b)
	}
	kp.Total = lbn
	return kp
}

// linearSection finds lbn's (track, logical section) by scanning every
// boundary.
func linearSection(v *geometry.View, lbn int) (int, int) {
	for t := 0; t < v.Tracks(); t++ {
		tv := v.Track(t)
		for l := 0; l < tv.Sections(); l++ {
			if lbn >= tv.BoundLBN[l] && lbn < tv.BoundLBN[l+1] {
				return t, l
			}
		}
	}
	return -1, -1
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// FuzzKeyPointView feeds arbitrary key-point tables through the
// key-file writer and reader — the trust boundary a -keyfile crosses —
// and checks the view and model built from each one:
//   - SectionIndex and Place agree with a linear search over the
//     boundaries, and Place's position with the per-track expression,
//     at every boundary ±1 and at sampled segments;
//   - LocateTime, the batched CostMatrix fill, ReadTime and RewindTime
//     agree bit-for-bit with the reference decomposition;
//   - segments outside the tape panic.
func FuzzKeyPointView(f *testing.F) {
	f.Add(uint8(1), uint8(3), []byte{40, 0, 200, 7, 0, 0}, uint8(0), uint8(0), int64(1))
	f.Add(uint8(0), uint8(0), []byte{}, uint8(0), uint8(0), int64(2))
	f.Add(uint8(3), uint8(4), []byte{0}, uint8(5), uint8(47), int64(3))
	f.Add(uint8(2), uint8(2), []byte{255, 3, 0, 90}, uint8(9), uint8(20), int64(4))
	f.Fuzz(func(t *testing.T, tracks, spt uint8, counts []byte, wideAt, wideShift uint8, seed int64) {
		var buf bytes.Buffer
		if err := geometry.WriteKeyPoints(&buf, keyPointTable(tracks, spt, counts, wideAt, wideShift), 0); err != nil {
			t.Fatal(err)
		}
		kp, _, err := geometry.ReadKeyPoints(&buf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromKeyPoints(kp)
		if err != nil {
			t.Fatal(err)
		}
		v := m.View()
		spts := kp.Params.SectionsPerTrack

		var probes []int
		for _, b := range kp.Bound {
			for _, lbn := range b {
				for _, p := range []int{lbn - 1, lbn, lbn + 1} {
					if p >= 0 && p < kp.Total {
						probes = append(probes, p)
					}
				}
			}
		}
		rng := rand48.New(seed)
		for i := 0; i < 16; i++ {
			probes = append(probes, int(uint64(rng.Int63())%uint64(kp.Total)))
		}

		for _, lbn := range probes {
			tr, l := linearSection(v, lbn)
			if got := v.SectionIndex(lbn); got != tr*spts+l {
				t.Fatalf("SectionIndex(%d) = %d, linear search says track %d section %d", lbn, got, tr, l)
			}
			pl := v.Place(lbn)
			tv := v.Track(tr)
			frac := (float64(lbn-tv.BoundLBN[l]) + 0.5) / float64(tv.SectionCount(l))
			pos := tv.BoundPos[l] + frac*(tv.BoundPos[l+1]-tv.BoundPos[l])
			if pl.Track != tr || pl.Section != l || pl.Frac != frac || pl.Pos != pos {
				t.Fatalf("Place(%d) = %+v, want track %d section %d frac %v pos %v", lbn, pl, tr, l, frac, pos)
			}
		}

		ref := m.Reference()
		for _, src := range probes {
			for _, dst := range probes {
				if got, want := m.LocateTime(src, dst), ref.LocateTime(src, dst); got != want {
					t.Fatalf("LocateTime(%d, %d) = %v, reference %v", src, dst, got, want)
				}
			}
		}
		got := make([]float64, len(probes)*len(probes))
		want := make([]float64, len(got))
		m.CostMatrix(got, probes, probes)
		FillCostMatrix(ref, want, probes, probes)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("CostMatrix cell %d = %v, reference %v", i, got[i], want[i])
			}
		}
		for _, lbn := range probes {
			if got, want := m.ReadTime(lbn), ref.ReadTime(lbn); got != want {
				t.Fatalf("ReadTime(%d) = %v, reference %v", lbn, got, want)
			}
			pl := v.Place(lbn)
			want := m.p.OverheadSec + m.p.ScanSecPerSection*pl.Pos
			if pl.Dir == geometry.Forward {
				want += m.p.ReverseSec
			}
			if got := m.RewindTime(lbn); got != want {
				t.Fatalf("RewindTime(%d) = %v, reference %v", lbn, got, want)
			}
		}

		for _, lbn := range []int{-1, kp.Total} {
			if !panics(func() { v.SectionIndex(lbn) }) || !panics(func() { v.Place(lbn) }) ||
				!panics(func() { m.ReadTime(lbn) }) || !panics(func() { m.LocateTime(0, lbn) }) {
				t.Fatalf("segment %d outside [0,%d) did not panic", lbn, kp.Total)
			}
		}
	})
}
