package workload

import (
	"math"
	"testing"
)

func TestPoissonArrivalsStatistics(t *testing.T) {
	const rate = 0.05 // one request every 20 s on average
	const n = 20000
	arr, err := PoissonArrivals(rate, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != n {
		t.Fatalf("got %d arrivals", len(arr))
	}
	prev := 0.0
	var sum, sumSq float64
	for _, a := range arr {
		if a <= prev {
			t.Fatal("arrivals must be strictly increasing")
		}
		gap := a - prev
		sum += gap
		sumSq += gap * gap
		prev = a
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.03/rate {
		t.Fatalf("mean gap %.2f s, want ~%.2f", mean, 1/rate)
	}
	// Exponential gaps: stddev equals the mean.
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(sd-mean) > 0.05*mean {
		t.Fatalf("gap stddev %.2f, want ~mean %.2f (exponential)", sd, mean)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a, err := PoissonArrivals(1, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonArrivals(1, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestPoissonArrivalsValidation(t *testing.T) {
	if _, err := PoissonArrivals(0, 5, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := PoissonArrivals(1, -1, 1); err == nil {
		t.Fatal("negative count accepted")
	}
	empty, err := PoissonArrivals(1, 0, 1)
	if err != nil || len(empty) != 0 {
		t.Fatal("zero count should yield an empty slice")
	}
}

func TestPoissonProcessMatchesBatch(t *testing.T) {
	batch, err := PoissonArrivals(0.02, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoissonProcess(0.02, 9)
	for i, want := range batch {
		if got := p.Next(); got != want {
			t.Fatalf("event %d: stream %g, batch %g — draw sequences diverged", i, got, want)
		}
	}
	prev := 0.0
	for _, v := range batch {
		if v <= prev {
			t.Fatalf("arrival times not strictly ascending: %g after %g", v, prev)
		}
		prev = v
	}
}

func TestPoissonProcessRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPoissonProcess accepted rate 0")
		}
	}()
	NewPoissonProcess(0, 1)
}

// Both constructors reject every rate that is not positive and
// finite: NaN slips past a "<= 0" guard, and +Inf would stack every
// arrival at t = 0.
func TestPoissonRejectsNonFiniteRates(t *testing.T) {
	for _, c := range []struct {
		name string
		rate float64
	}{
		{"zero", 0},
		{"negative zero", math.Copysign(0, -1)},
		{"negative", -1},
		{"-Inf", math.Inf(-1)},
		{"+Inf", math.Inf(1)},
		{"NaN", math.NaN()},
	} {
		t.Run(c.name, func(t *testing.T) {
			if arr, err := PoissonArrivals(c.rate, 3, 1); err == nil {
				t.Fatalf("PoissonArrivals(%g) accepted: %v", c.rate, arr)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("NewPoissonProcess(%g) did not panic", c.rate)
				}
			}()
			NewPoissonProcess(c.rate, 1)
		})
	}
	if _, err := PoissonArrivals(math.MaxFloat64, 3, 1); err != nil {
		t.Fatalf("largest finite rate rejected: %v", err)
	}
}
