package locate

import (
	"math"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/rand48"
)

func TestPerturbedAltersByParity(t *testing.T) {
	_, m := dltModel(t, 1)
	p := &Perturbed{Base: m, E: 5}
	rng := rand48.New(3)
	for i := 0; i < 500; i++ {
		src := rng.Intn(m.Segments())
		dst := rng.Intn(m.Segments())
		if src == dst {
			continue
		}
		base := m.LocateTime(src, dst)
		got := p.LocateTime(src, dst)
		want := base + 5
		if dst%2 == 1 {
			want = base - 5
		}
		if want < 0 {
			want = 0
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Perturbed(%d,%d) = %g, want %g", src, dst, got, want)
		}
	}
}

func TestPerturbedNeverNegative(t *testing.T) {
	_, m := dltModel(t, 1)
	p := &Perturbed{Base: m, E: 1e6}
	if got := p.LocateTime(0, 1); got < 0 {
		t.Fatalf("perturbed locate negative: %g", got)
	}
}

func TestPerturbedDelegates(t *testing.T) {
	tape, m := dltModel(t, 1)
	p := &Perturbed{Base: m, E: 2}
	if p.Segments() != m.Segments() || p.View() != m.View() {
		t.Fatal("Perturbed must delegate View/Segments")
	}
	if p.ReadTime(100) != m.ReadTime(100) {
		t.Fatal("Perturbed must delegate ReadTime")
	}
	if p.FullReadTime() != m.FullReadTime() {
		t.Fatal("Perturbed must delegate FullReadTime")
	}
	_ = tape
}

// The truth-geometry model and the key-point model must agree
// closely on the same tape: this is the foundation of Figure 8.
func TestExactVsKeyPointModelAgreement(t *testing.T) {
	tape := geometry.MustGenerate(geometry.DLT4000(), 5)
	exact := NewModel(tape.View())
	kp, err := FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand48.New(77)
	const trials = 2000
	var worst, sum float64
	over2 := 0
	for i := 0; i < trials; i++ {
		src := rng.Intn(exact.Segments())
		dst := rng.Intn(exact.Segments())
		d := math.Abs(exact.LocateTime(src, dst) - kp.LocateTime(src, dst))
		sum += d
		worst = math.Max(worst, d)
		if d > 2 {
			over2++
		}
	}
	// The paper's Section 3 quality bar: errors over 2 s are rare
	// (7 in 3000 on the model-development tape); the mean error is
	// well under a second. The worst case can reach a few seconds
	// when a near-boundary position estimate flips a scan direction.
	if mean := sum / trials; mean > 0.5 {
		t.Fatalf("mean exact-vs-keypoint disagreement %.3f s, want < 0.5", mean)
	}
	if over2 > trials/100 {
		t.Fatalf("%d/%d disagreements over 2 s, want < 1%%", over2, trials)
	}
	if worst > 8 {
		t.Fatalf("worst disagreement %.2f s, want < 8", worst)
	}
}
