package tertiary

import (
	"fmt"
	"sort"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/obs"
	"serpentine/internal/server"
)

// mergingScheduler coalesces duplicate segments into one visit — the
// behaviour that exposed seed bug 1: the seed handed schedulers a
// request list with duplicates and silently dropped the requests a
// merging plan no longer visited.
type mergingScheduler struct{}

func (mergingScheduler) Name() string { return "MERGE" }

func (mergingScheduler) Schedule(p *core.Problem) (core.Plan, error) {
	seen := make(map[int]bool)
	var order []int
	for _, r := range p.Requests {
		if !seen[r] {
			seen[r] = true
			order = append(order, r)
		}
	}
	sort.Ints(order)
	return core.Plan{Order: order}, nil
}

// duplicatingScheduler visits its first segment twice — the shape
// that made the seed panic on ps[0].
type duplicatingScheduler struct{}

func (duplicatingScheduler) Name() string { return "DUP" }

func (duplicatingScheduler) Schedule(p *core.Problem) (core.Plan, error) {
	if len(p.Requests) == 0 {
		return core.Plan{}, nil
	}
	order := []int{p.Requests[0], p.Requests[0]}
	return core.Plan{Order: order}, nil
}

// Regression for seed bug 1: two requests for the same object must
// both complete even when the scheduler merges the duplicate
// segments. The seed implementation loses one of them silently.
func TestDuplicateRequestsCompleteWithMergingScheduler(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Scheduler = mergingScheduler{}
	cat := smallCatalog(t, cfg, 4)
	reqs := []Request{
		{ObjectID: "t101/o1"},
		{ObjectID: "t101/o1"}, // duplicate of the same object
		{ObjectID: "t101/o2"},
	}

	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 || m.Served != 3 {
		t.Fatalf("served %d of 3 with a merging scheduler", len(done))
	}
	// The two duplicates share one physical read, so they complete at
	// the same instant.
	var dupDone []float64
	for _, c := range done {
		if c.ObjectID == "t101/o1" {
			dupDone = append(dupDone, c.Done)
		}
	}
	if len(dupDone) != 2 || dupDone[0] != dupDone[1] {
		t.Fatalf("duplicate completions %v, want two at the same time", dupDone)
	}

	// The seed implementation drops one of the three.
	refLib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	refDone, _, err := refRun(refLib, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(refDone) >= 3 {
		t.Fatalf("seed implementation now serves all %d duplicates; drop this guard", len(refDone))
	}
}

// Regression for the seed's ps[0] panic: a plan that visits a segment
// more often than requested must surface as a clean error.
func TestOverVisitingPlanIsError(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Scheduler = duplicatingScheduler{}
	cat := smallCatalog(t, cfg, 4)
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = lib.Run([]Request{{ObjectID: "t101/o1"}, {ObjectID: "t101/o2"}})
	if err == nil {
		t.Fatal("over-visiting plan accepted")
	}
}

// Regression for seed bug 2: Mounts counted batches, not cartridge
// exchanges. Two consecutive batches from one cartridge are one
// mount.
func TestMountsCountExchangesNotBatches(t *testing.T) {
	cfg := smallCfg(1)
	cfg.BatchLimit = 5
	cat := smallCatalog(t, cfg, 10)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", i)})
	}

	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 2 {
		t.Fatalf("10 requests at limit 5 ran in %d batches, want 2", m.Batches)
	}
	if m.Mounts != 1 || m.Unmounts != 0 {
		t.Fatalf("one cartridge mounted %d times, unmounted %d times; want 1 and 0", m.Mounts, m.Unmounts)
	}

	// The seed counts a mount per batch.
	refLib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	_, refM, err := refRun(refLib, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if refM.Mounts != refM.Batches {
		t.Fatal("seed implementation no longer conflates mounts with batches; drop this guard")
	}
}

// Regression for seed bug 3: serial 0 collided with both the "no
// candidate yet" sentinel in pickTape and the "drive empty" sentinel
// in driveState.mounted. A cartridge with serial 0 must behave like
// any other.
func TestSerialZeroCartridge(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Tapes = []int64{0, 101}
	cat := NewCatalog()
	for _, serial := range cfg.Tapes {
		for i := 0; i < 4; i++ {
			if err := cat.Put(Object{ID: fmt.Sprintf("t%d/o%d", serial, i), Tape: serial, Start: i * 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reqs := []Request{
		{ObjectID: "t0/o0"},
		{ObjectID: "t0/o1"},
		{ObjectID: "t101/o0"},
	}

	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 || m.Served != 3 {
		t.Fatalf("served %d of 3 with a serial-0 cartridge", len(done))
	}
	// Tape 0 has the most pending work, so it is picked first, and
	// switching to tape 101 afterwards is a real exchange.
	if m.Mounts != 2 || m.Unmounts != 1 {
		t.Fatalf("mounts %d unmounts %d, want 2 and 1", m.Mounts, m.Unmounts)
	}
	for _, c := range done {
		if c.Object.Tape == 0 && c.Done >= done[len(done)-1].Done && c.ObjectID != done[len(done)-1].ObjectID {
			t.Fatalf("tape 0 not served first: %+v", done)
		}
	}

	// The seed implementation treats "mounted == 0" as empty and
	// never loads the serial-0 cartridge at all: it nil-derefs.
	refLib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("seed implementation no longer breaks on serial 0; drop this guard")
			}
		}()
		_, _, _ = refRun(refLib, []Request{{ObjectID: "t0/o0"}})
	}()
}

// The robot arm is a serialized resource: two drives mounting at the
// same instant queue for it.
func TestRobotArmSerializesExchanges(t *testing.T) {
	cfg := smallCfg(2)
	cat := smallCatalog(t, cfg, 4)
	reqs := []Request{
		{ObjectID: "t101/o0"},
		{ObjectID: "t102/o0"},
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || m.Mounts != 2 || m.RobotMoves != 2 {
		t.Fatalf("bad exchange accounting: %+v", m)
	}
	// Both drives want the arm at t=0; the second waits out the
	// first's 30 s mount.
	if m.RobotWaitSec != 30 {
		t.Fatalf("robot wait %.1f s, want 30", m.RobotWaitSec)
	}
	if m.RobotBusySec != 60 {
		t.Fatalf("robot busy %.1f s, want 60", m.RobotBusySec)
	}
}

// At QueueCap the library sheds load at admission instead of queueing
// without bound.
func TestLoadSheddingAtCapacity(t *testing.T) {
	cfg := smallCfg(1)
	cfg.QueueCap = 4
	cat := smallCatalog(t, cfg, 20)
	var reqs []Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", i)})
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 4 || m.Rejected != 16 || len(done) != 4 {
		t.Fatalf("served %d rejected %d, want 4 and 16", m.Served, m.Rejected)
	}
	if m.MaxQueueDepth > 4 {
		t.Fatalf("queue depth %d exceeded cap 4", m.MaxQueueDepth)
	}
}

// Fault recovery composes with mounting: transient faults are retried
// inside the mounted batch and every request still completes.
func TestFaultRecoveryComposesWithMounting(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Faults = fault.Config{TransientRate: 0.2, Seed: 5}
	cat := smallCatalog(t, cfg, 40)
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", i)})
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Failed != 40 {
		t.Fatalf("conservation broken: served %d + failed %d != 40", m.Served, m.Failed)
	}
	if len(done) != m.Served {
		t.Fatalf("%d completions for %d served", len(done), m.Served)
	}
	if m.Retries == 0 {
		t.Fatal("a 20% transient rate over 40 reads injected no retries")
	}
	if m.RecoverySec <= 0 {
		t.Fatal("recovery consumed no virtual time")
	}
}

// FixedWindow holds dispatch until the window boundary.
func TestFixedWindowDelaysDispatch(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Policy = server.FixedWindow
	cfg.WindowSec = 100
	cat := smallCatalog(t, cfg, 4)
	reqs := []Request{
		{ObjectID: "t101/o0", Arrival: 5},
		{ObjectID: "t101/o1", Arrival: 50},
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	done, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 1 {
		t.Fatalf("both arrivals inside one window ran in %d batches", m.Batches)
	}
	for _, c := range done {
		if c.Done < 100 {
			t.Fatalf("completion at %.1f s before the 100 s boundary", c.Done)
		}
	}
}

// ReplanOnArrival serves one request per dispatch so every decision
// sees the freshest queue — without churning the mounted cartridge.
func TestReplanOnArrivalServesOneAtATime(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Policy = server.ReplanOnArrival
	cat := smallCatalog(t, cfg, 6)
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", i)})
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batches != 6 {
		t.Fatalf("6 requests ran in %d batches, want one each", m.Batches)
	}
	if m.Mounts != 1 {
		t.Fatalf("one cartridge mounted %d times", m.Mounts)
	}
	if m.Served != 6 {
		t.Fatalf("served %d of 6", m.Served)
	}
}

// The registry sees what the metrics report, and the drive hook counts
// operations per drive.
func TestObservabilityCounters(t *testing.T) {
	cfg := smallCfg(1)
	cfg.QueueCap = 6
	reg := obs.NewRegistry()
	cfg.Reg = reg
	cat := smallCatalog(t, cfg, 10)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{ObjectID: fmt.Sprintf("t101/o%d", i)})
	}
	lib, err := New(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := lib.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("served_total").Value(); got != int64(m.Served) {
		t.Fatalf("served_total %d, metrics %d", got, m.Served)
	}
	if got := reg.Counter("batches_total").Value(); got != int64(m.Batches) {
		t.Fatalf("batches_total %d, metrics %d", got, m.Batches)
	}
	if got := reg.Counter("rejected_total").Value(); got != int64(m.Rejected) {
		t.Fatalf("rejected_total %d, metrics %d", got, m.Rejected)
	}
	if got := reg.Counter("mounts_total", obs.L("tape", "101")).Value(); got != int64(m.Mounts) {
		t.Fatalf("mounts_total{tape=101} %d, metrics %d", got, m.Mounts)
	}
	if got := reg.Counter("drive_ops_total", obs.L("op", "locate"), obs.L("drive", "0")).Value(); got <= 0 {
		t.Fatalf("drive_ops_total{op=locate,drive=0} = %d, want > 0", got)
	}
	if got := reg.Gauge("makespan_seconds").Value(); got != m.Makespan {
		t.Fatalf("makespan gauge %g, metrics %g", got, m.Makespan)
	}
}
