package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
)

func dltModel(t testing.TB) *locate.Model {
	t.Helper()
	tape := geometry.MustGenerate(geometry.DLT4000(), 1)
	m, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func smallRun(t testing.TB, start StartMode, lengths []int, trials int) *Result {
	t.Helper()
	res, err := Run(Config{
		Model:      dltModel(t),
		Schedulers: []core.Scheduler{core.FIFO{}, core.Sort{}, core.NewSLTF(), core.NewLOSS(), core.NewOPT(12), core.Read{}},
		Lengths:    lengths,
		Trials:     func(int) int { return trials },
		Start:      start,
		Seed:       1,
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Run(Config{Model: dltModel(t)}); err == nil {
		t.Fatal("no schedulers accepted")
	}
}

// FIFO's mean per-locate time at a random start must reproduce the
// paper's 72.4 s mean random locate.
func TestFIFOMatchesRandomLocateMean(t *testing.T) {
	res := smallRun(t, RandomStart, []int{48}, 120)
	got, ok := res.MeanPerLocate("FIFO", 48)
	if !ok {
		t.Fatal("no FIFO data")
	}
	if math.Abs(got-72.4) > 5 {
		t.Fatalf("FIFO per-locate = %.2f s, paper 72.4", got)
	}
}

// The ordering the paper's Figures 4/5 show: LOSS <= SLTF <= SORT <=
// FIFO at moderate batch sizes.
func TestAlgorithmOrderingAtModerateN(t *testing.T) {
	res := smallRun(t, RandomStart, []int{96}, 40)
	get := func(alg string) float64 {
		v, ok := res.MeanPerLocate(alg, 96)
		if !ok {
			t.Fatalf("no %s data", alg)
		}
		return v
	}
	loss, sltf, sorted, fifo := get("LOSS"), get("SLTF"), get("SORT"), get("FIFO")
	if !(loss <= sltf+0.5 && sltf < sorted && sorted < fifo) {
		t.Fatalf("ordering violated: LOSS %.1f SLTF %.1f SORT %.1f FIFO %.1f", loss, sltf, sorted, fifo)
	}
}

// OPT is skipped beyond OptMax, exactly as the paper's experiments
// only run it to 12 requests.
func TestOPTSkippedBeyondLimit(t *testing.T) {
	res := smallRun(t, BOTStart, []int{10, 16}, 5)
	if _, ok := res.MeanPerLocate("OPT", 10); !ok {
		t.Fatal("OPT missing at n=10")
	}
	if _, ok := res.MeanPerLocate("OPT", 16); ok {
		t.Fatal("OPT present at n=16 despite the limit")
	}
}

// BOT starts cost more than random starts at n=1 (the head is
// farther from a random destination on average: 96.5 vs 72.4 s).
func TestStartModeMatters(t *testing.T) {
	bot := smallRun(t, BOTStart, []int{1}, 300)
	rnd := smallRun(t, RandomStart, []int{1}, 300)
	b, _ := bot.MeanPerLocate("FIFO", 1)
	r, _ := rnd.MeanPerLocate("FIFO", 1)
	if math.Abs(b-96.5) > 6 {
		t.Errorf("BOT n=1 per-locate %.1f, paper 96.5", b)
	}
	if b <= r {
		t.Errorf("BOT start (%.1f) should cost more than random start (%.1f) at n=1", b, r)
	}
}

func TestResultReproducibleAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) float64 {
		res, err := Run(Config{
			Model:      dltModel(t),
			Schedulers: []core.Scheduler{core.NewSLTF()},
			Lengths:    []int{32},
			Trials:     func(int) int { return 30 },
			Seed:       5,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.MeanPerLocate("SLTF", 32)
		return v
	}
	if a, b := run(1), run(4); math.Abs(a-b) > 1e-9 {
		t.Fatalf("results differ by worker count: %.6f vs %.6f", a, b)
	}
}

func TestWriteTables(t *testing.T) {
	res := smallRun(t, RandomStart, []int{4, 8}, 5)
	var buf bytes.Buffer
	for _, f := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return res.WritePerLocateTable(b) },
		func(b *bytes.Buffer) error { return res.WriteStdDevTable(b) },
		func(b *bytes.Buffer) error { return res.WriteCPUTable(b) },
	} {
		buf.Reset()
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "FIFO") || !strings.Contains(out, "LOSS") {
			t.Fatalf("table missing algorithms:\n%s", out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
			t.Fatalf("table should have header+2 rows:\n%s", out)
		}
	}
}

func TestPaperTrialTables(t *testing.T) {
	if PaperTrials(1) != 100000 || PaperTrials(192) != 100000 {
		t.Fatal("paper trials small-n wrong")
	}
	if PaperTrials(256) != 25000 || PaperTrials(2048) != 400 {
		t.Fatal("paper trials large-n wrong")
	}
	f := ScaledTrials(1000, 8)
	if f(1) != 100 || f(2048) != 8 {
		t.Fatal("scaled trials wrong")
	}
}

func TestSummaryAgainstPaper(t *testing.T) {
	res, err := Run(Config{
		Model:      dltModel(t),
		Schedulers: []core.Scheduler{core.FIFO{}, core.NewOPT(12), core.NewLOSS(), core.Read{}},
		Lengths:    []int{10, 96, 192, 1024, 1536},
		Trials: func(n int) int {
			if n >= 1024 {
				return 3
			}
			return 25
		},
		Start: RandomStart,
		Seed:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Summary(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("summary has %d rows", len(rows))
	}
	// Shape check against the paper's Section 8 rates, generous
	// tolerances for the reduced trial counts.
	want := []struct {
		paper, tol float64
	}{
		{50, 6}, {93, 10}, {124, 12}, {285, 40}, {391, 40},
	}
	for i, row := range rows {
		if math.Abs(row.IOsPerHour-want[i].paper) > want[i].tol {
			t.Errorf("%s: %.1f IO/h, paper %.0f", row.Label, row.IOsPerHour, want[i].paper)
		}
		if row.Paper != want[i].paper {
			t.Errorf("%s: recorded paper value %.0f, want %.0f", row.Label, row.Paper, want[i].paper)
		}
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LOSS, batch 96") {
		t.Fatal("summary output missing rows")
	}

	if _, err := Summary(smallRun(t, RandomStart, []int{4}, 2)); err == nil {
		t.Fatal("summary without required lengths should error")
	}
}

func TestUtilizationCurves(t *testing.T) {
	res := smallRun(t, RandomStart, []int{10, 96}, 30)
	curves, err := UtilizationCurves(res, "LOSS", 1.5e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != len(PaperUtilizationTargets) {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.N) != 2 {
			t.Fatalf("curve has %d points", len(c.N))
		}
		// Longer schedules need smaller transfers for the same
		// utilization.
		if c.TransferMB[1] >= c.TransferMB[0] {
			t.Fatalf("target %.0f%%: transfer size not decreasing with batch size: %v",
				c.Target*100, c.TransferMB)
		}
	}
	// Higher targets need bigger transfers at the same length.
	for i := 1; i < len(curves); i++ {
		if curves[i].TransferMB[0] <= curves[i-1].TransferMB[0] {
			t.Fatal("transfer size should grow with the utilization target")
		}
	}
	// The paper's headline: ~10 scheduled requests of ~30 MB give
	// disk-comparable behaviour (between the 33% and 75% contours).
	mid, err := UtilizationCurves(res, "LOSS", 1.5e6, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if b := mid[0].TransferMB[0]; b < 15 || b > 75 {
		t.Errorf("50%% utilization at n=10 needs %.0f MB, want tens of MB", b)
	}

	if _, err := UtilizationCurves(res, "NOPE", 1.5e6, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := UtilizationCurves(res, "LOSS", 1.5e6, []float64{1.5}); err == nil {
		t.Fatal("bad target accepted")
	}

	var buf bytes.Buffer
	if err := WriteUtilization(&buf, curves); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "90%") {
		t.Fatal("utilization output missing targets")
	}
}
