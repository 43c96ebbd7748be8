package hsm

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"serpentine/internal/geometry"
	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// testStore builds the library sweeps' synthetic store: 4 cartridges,
// 128 objects each, 16-segment extents.
func testStore(t *testing.T) *tertiary.Library {
	t.Helper()
	return sweepStore(t, 128)
}

// prefetchStore is testStore with 512 objects per cartridge: a catalog
// stride of ~1.2k segments, under the coalescing threshold T=1410, so
// every consecutive pair of a cartridge's objects is one coalesced run.
func prefetchStore(t *testing.T) *tertiary.Library {
	t.Helper()
	return sweepStore(t, 512)
}

func sweepStore(t *testing.T, objects int) *tertiary.Library {
	t.Helper()
	base, err := tertiary.SweepStore(geometry.DLT4000(), 4, objects, 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func cloneFor(base *tertiary.Library, cfg tertiary.Config) *tertiary.Library {
	cfg.Profile = geometry.DLT4000()
	cfg.Tapes = base.Tapes()
	return base.Clone(cfg)
}

// TestZeroCacheTierEquivalence is the spine: a size-0 tier must be a
// bit-identical pass-through — same completions, same metrics, same
// metric dump, same spans as the bare library over the same stream.
func TestZeroCacheTierEquivalence(t *testing.T) {
	base := testStore(t)
	stream, err := tertiary.SweepStream(120, 200, 42, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	configs := []tertiary.Config{
		{Drives: 1, BatchLimit: 1},
		{Drives: 2, BatchLimit: 8, QueueCap: 8},
	}
	for _, cfg := range configs {
		regA, regB := obs.NewRegistry(), obs.NewRegistry()
		trA, trB := obs.NewTracer(1<<14), obs.NewTracer(1<<14)
		bare := cfg
		bare.Reg, bare.SpanTrace = regA, trA.StartTrace()
		wrapped := cfg
		wrapped.Reg, wrapped.SpanTrace = regB, trB.StartTrace()

		wantComps, wantM, err := cloneFor(base, bare).Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		tier, err := NewTier(cloneFor(base, wrapped), Config{})
		if err != nil {
			t.Fatal(err)
		}
		gotComps, gotM, err := tier.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotComps, wantComps) {
			t.Fatalf("drives=%d: size-0 tier completions differ from bare library", cfg.Drives)
		}
		if want := (Metrics{Lib: wantM, Makespan: wantM.Makespan}); gotM != want {
			t.Fatalf("drives=%d: size-0 tier metrics = %+v, want %+v", cfg.Drives, gotM, want)
		}
		var dumpA, dumpB bytes.Buffer
		if err := regA.WriteProm(&dumpA); err != nil {
			t.Fatal(err)
		}
		if err := regB.WriteProm(&dumpB); err != nil {
			t.Fatal(err)
		}
		if dumpA.String() != dumpB.String() {
			t.Fatalf("drives=%d: size-0 tier metric dump differs from bare library", cfg.Drives)
		}
		if !reflect.DeepEqual(trA.Spans(), trB.Spans()) {
			t.Fatalf("drives=%d: size-0 tier spans differ from bare library", cfg.Drives)
		}
	}
}

// TestZeroCacheSweepEquivalence pins the sweep-level spine: hsm.Sweep
// at cache size 0 reproduces tertiary.Sweep's cells — metrics, spans,
// completions and merged registry dump — when the inner axes collapse
// to single elements.
func TestZeroCacheSweepEquivalence(t *testing.T) {
	rates := []float64{60, 120}
	regH, regT := obs.NewRegistry(), obs.NewRegistry()
	hsmCells, err := Sweep(SweepConfig{
		TapeCount: 4, Objects: 128, ObjectSegments: 16,
		RatesPerHour: rates,
		CacheBytes:   []int64{0},
		Drives:       2, BatchLimit: 16,
		Requests: 120, Seed: 3, Workers: 2,
		Reg: regH, SpanCap: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	tertCells, err := tertiary.Sweep(tertiary.SweepConfig{
		TapeCount: 4, Objects: 128, ObjectSegments: 16,
		RatesPerHour: rates,
		DriveCounts:  []int{2},
		BatchLimits:  []int{16},
		Requests:     120, Seed: 3, Workers: 2,
		Reg: regT, SpanCap: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hsmCells) != len(tertCells) {
		t.Fatalf("cell counts differ: hsm %d, tertiary %d", len(hsmCells), len(tertCells))
	}
	for i := range hsmCells {
		h, lib := hsmCells[i], tertCells[i]
		if h.Policy != "off" || h.CacheBytes != 0 {
			t.Fatalf("cell %d: not a baseline cell: %+v", i, h)
		}
		if h.Metrics.Lib != lib.Metrics {
			t.Errorf("cell %d: library metrics differ:\nhsm  %+v\ntert %+v", i, h.Metrics.Lib, lib.Metrics)
		}
		if !reflect.DeepEqual(h.Completions, lib.Completions) {
			t.Errorf("cell %d: completions differ", i)
		}
		if !reflect.DeepEqual(h.Spans, lib.Spans) {
			t.Errorf("cell %d: spans differ", i)
		}
	}
	var dumpH, dumpT bytes.Buffer
	if err := regH.WriteProm(&dumpH); err != nil {
		t.Fatal(err)
	}
	if err := regT.WriteProm(&dumpT); err != nil {
		t.Fatal(err)
	}
	if dumpH.String() != dumpT.String() {
		t.Error("merged registry dumps differ between hsm.Sweep(size 0) and tertiary.Sweep")
	}
}

// TestTierHitPath re-requests a fetched object long after its fetch
// completed: the second access must be a cache hit at disk cost, with
// a CacheDriveID completion whose attribution telescopes to its
// sojourn.
func TestTierHitPath(t *testing.T) {
	base := testStore(t)
	lib := cloneFor(base, tertiary.Config{Drives: 1, BatchLimit: 4})
	tier, err := NewTier(lib, Config{CapacityBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	stream := []tertiary.Request{
		{ObjectID: "t0/o5", Arrival: 0},
		{ObjectID: "t0/o5", Arrival: 20000},
	}
	comps, m, err := tier.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", m.Hits, m.Misses)
	}
	if m.Served() != 2 || m.Lib.Served != 1 {
		t.Fatalf("served=%d (lib %d), want 2 (lib 1)", m.Served(), m.Lib.Served)
	}
	if len(comps) != 2 {
		t.Fatalf("%d completions, want 2", len(comps))
	}
	hit := comps[len(comps)-1]
	if hit.DriveID != CacheDriveID {
		t.Fatalf("hit completion DriveID = %d, want %d", hit.DriveID, CacheDriveID)
	}
	// 16 segments × 32 KiB at 8 MiB/s + 5 ms seek. The sojourn is
	// recovered by subtracting a ~2e4 arrival, so compare at the
	// telescoping tolerance, not exactly.
	wantSvc := 0.005 + float64(16*32768)/float64(8<<20)
	if got := hit.Done - hit.Request.Arrival; math.Abs(got-wantSvc) > 1e-9 {
		t.Errorf("hit sojourn = %g, want %g", got, wantSvc)
	}
	if sum := hit.Attribution.LocateSec + hit.Attribution.TransferSec; math.Abs(sum-(hit.Done-hit.Request.Arrival)) > 1e-9 {
		t.Errorf("hit attribution %g does not telescope to sojourn %g", sum, hit.Done-hit.Request.Arrival)
	}
	if m.HitSojournSec != m.MaxHitSojourn || math.Abs(m.HitSojournSec-wantSvc) > 1e-12 {
		t.Errorf("hit sojourn accounting: sum %g max %g, want %g", m.HitSojournSec, m.MaxHitSojourn, wantSvc)
	}
	if m.Makespan < m.Lib.Makespan {
		t.Errorf("makespan %g below library makespan %g", m.Makespan, m.Lib.Makespan)
	}
}

// TestTierHitsBypassQueueCap pins the wiring point: resident objects
// complete without touching the library's admission, so a queue sized
// for one request still serves a burst of hits without rejecting.
func TestTierHitsBypassQueueCap(t *testing.T) {
	base := testStore(t)
	stream := []tertiary.Request{
		{ObjectID: "t0/o0", Arrival: 0},
		{ObjectID: "t0/o0", Arrival: 20000},
		{ObjectID: "t0/o0", Arrival: 20000},
		{ObjectID: "t0/o0", Arrival: 20000},
		{ObjectID: "t1/o9", Arrival: 20000},
	}
	tier, err := NewTier(cloneFor(base, tertiary.Config{Drives: 1, QueueCap: 1}), Config{CapacityBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := tier.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hits != 3 {
		t.Fatalf("hits=%d, want 3", m.Hits)
	}
	if m.Lib.Rejected != 0 {
		t.Fatalf("cache-backed run rejected %d requests at QueueCap 1", m.Lib.Rejected)
	}
	if m.Served() != 5 {
		t.Fatalf("served=%d, want 5", m.Served())
	}

	// The bare library under the same stream overflows the
	// one-request queue — the capacity the hits did not consume.
	_, bm, err := cloneFor(base, tertiary.Config{Drives: 1, QueueCap: 1}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Rejected == 0 {
		t.Fatal("bare library rejected nothing: the stream does not pressure QueueCap 1")
	}
}

// TestTierPrefetch pins the coalesced-run prefetch: one miss on a
// cartridge pulls the objects ahead of it within the threshold into
// free capacity, forward only, never evicting.
func TestTierPrefetch(t *testing.T) {
	base := prefetchStore(t)
	tier, err := NewTier(cloneFor(base, tertiary.Config{Drives: 1}), Config{
		CapacityBytes: 1 << 30,
		Prefetch:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := tier.Run([]tertiary.Request{{ObjectID: "t0/o100", Arrival: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Installs != 1 {
		t.Fatalf("demand installs=%d, want 1", m.Installs)
	}
	if m.PrefetchInstalls == 0 {
		t.Fatal("no prefetch installs despite free capacity and a coalesced run ahead")
	}
	if !tier.Cached(base.Slot("t0/o100")) || !tier.Cached(base.Slot("t0/o101")) {
		t.Error("fetched extent or its successor not resident after prefetch")
	}
	if tier.Cached(base.Slot("t0/o99")) {
		t.Error("prefetch ran backwards: t0/o99 resident")
	}
	if tier.Cached(base.Slot("t1/o100")) {
		t.Error("prefetch crossed cartridges: t1/o100 resident")
	}
	if m.Evictions != 0 {
		t.Errorf("prefetch evicted %d entries", m.Evictions)
	}

	// Under a tight capacity prefetch fills the room it finds and
	// stops: still no evictions.
	tight, err := NewTier(cloneFor(base, tertiary.Config{Drives: 1}), Config{
		CapacityBytes: 3 * 16 * 32768, // three extents
		Prefetch:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, tm, err := tight.Run([]tertiary.Request{{ObjectID: "t0/o100", Arrival: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if tm.PrefetchInstalls != 2 {
		t.Errorf("tight prefetch installs=%d, want 2 (capacity minus the demand extent)", tm.PrefetchInstalls)
	}
	if tm.Evictions != 0 {
		t.Errorf("tight prefetch evicted %d entries", tm.Evictions)
	}
}

// TestTierNilRegistryNeutral pins the registry's off switch at the
// tier: a cached, prefetching, evicting tier run without a registry
// gives the same completions and metrics as the run with one.
func TestTierNilRegistryNeutral(t *testing.T) {
	base := prefetchStore(t)
	stream, err := tertiary.SweepStream(240, 300, 7, 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	run := func(reg *obs.Registry) ([]tertiary.Completion, Metrics) {
		tier, err := NewTier(cloneFor(base, tertiary.Config{Drives: 2, BatchLimit: 8, Reg: reg}), Config{
			CapacityBytes: 16 * 16 * 32768, // sixteen extents
			Prefetch:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		comps, m, err := tier.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		return comps, m
	}
	reg := obs.NewRegistry()
	wantComps, wantM := run(reg)
	gotComps, gotM := run(nil)
	if wantM.Hits == 0 || wantM.PrefetchInstalls == 0 || wantM.Evictions == 0 {
		t.Fatalf("fixture too tame: %+v", wantM)
	}
	if reg.Counter("cache_hits_total").Value() != int64(wantM.Hits) {
		t.Fatal("the registry run did not record its hits")
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("nil-registry metrics = %+v, want %+v", gotM, wantM)
	}
	if !reflect.DeepEqual(gotComps, wantComps) {
		t.Fatal("nil-registry completions differ from the registry run")
	}
}

// TestNewTierRejectsNegativeConfig pins that negative knobs are
// errors, not silent fallbacks to the defaults.
func TestNewTierRejectsNegativeConfig(t *testing.T) {
	base := testStore(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"capacity", Config{CapacityBytes: -1}},
	} {
		if _, err := NewTier(cloneFor(base, tertiary.Config{Drives: 1}), tc.cfg); err == nil {
			t.Errorf("%s: NewTier accepted %+v", tc.name, tc.cfg)
		}
	}
}

// TestSweepWorkerDeterminism pins the cache sweep's parallel phase:
// cells and the merged registry dump are identical at 1 and 8 workers.
func TestSweepWorkerDeterminism(t *testing.T) {
	run := func(workers int) ([]Cell, string) {
		reg := obs.NewRegistry()
		cells, err := Sweep(SweepConfig{
			TapeCount: 4, Objects: 128, ObjectSegments: 16,
			RatesPerHour: []float64{60, 240},
			CacheBytes:   []int64{0, 8 << 20, 64 << 20},
			Policies:     []string{"lru", "clock", "cost"},
			Prefetch:     true,
			Requests:     100, Seed: 7, Workers: workers,
			Reg: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		if err := reg.WriteProm(&dump); err != nil {
			t.Fatal(err)
		}
		return cells, dump.String()
	}
	cells1, dump1 := run(1)
	cells8, dump8 := run(8)
	if !reflect.DeepEqual(cells1, cells8) {
		t.Error("sweep cells differ between 1 and 8 workers")
	}
	if dump1 != dump8 {
		t.Error("merged registry dump differs between 1 and 8 workers")
	}
	// 2 rates × (1 baseline + 2 sizes × 3 policies) = 14 cells.
	if len(cells1) != 14 {
		t.Fatalf("%d cells, want 14", len(cells1))
	}
	var anyHit bool
	for _, c := range cells1 {
		if c.CacheBytes > 0 && c.Metrics.Hits > 0 {
			anyHit = true
		}
	}
	if !anyHit {
		t.Error("no cached cell recorded a single hit — the experiment exercises nothing")
	}
}
