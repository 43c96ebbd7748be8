package hsm

import (
	"math"
	"slices"
	"testing"

	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// TestInstallQueueLandsInOrder pins the landing order of pending
// cache fills: by time, then record entry, whatever the push order,
// and only those due.
func TestInstallQueueLandsInOrder(t *testing.T) {
	q := &installQueue{}
	for i, rec := range []int32{3, 1, 4, 2} {
		q.push(install{at: float64(i % 2), rec: rec}) // 3 and 4 at 0, 1 and 2 at 1
	}
	var got []int32
	for _, now := range []float64{-1, 0, 1} {
		q.land(now, func(in install) { got = append(got, in.rec) })
	}
	if want := []int32{3, 4, 1, 2}; !slices.Equal(got, want) || len(*q) != 0 {
		t.Fatalf("landed %v with %d pending, want %v and none", got, len(*q), want)
	}
}

// TestTierHitEvents checks the cache-hit emission path: a hit emits a
// served wide event at disk cost with the cache pseudo-drive, the
// configured shard and the offered route, and its attribution
// telescopes (locate = disk latency, transfer = disk read, no queue).
func TestTierHitEvents(t *testing.T) {
	base := testStore(t)
	ring := obs.NewEventRing(16)
	tier, err := NewTier(cloneFor(base, tertiary.Config{
		Drives: 1, Events: ring, Shard: 2,
	}), Config{CapacityBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	stream := []tertiary.Request{
		{ObjectID: "t0/o1", Arrival: 0},
		{ObjectID: "t0/o1", Arrival: 50000},
	}
	if err := tier.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := tier.OfferRouted(stream[0], tier.lib.Slot(stream[0].ObjectID), tertiary.RouteRouted); err != nil {
		t.Fatal(err)
	}
	if err := tier.AdvanceTo(50000); err != nil {
		t.Fatal(err)
	}
	if err := tier.OfferRouted(stream[1], tier.lib.Slot(stream[1].ObjectID), tertiary.RouteAffinity); err != nil {
		t.Fatal(err)
	}
	if _, m, err := tier.Finish(); err != nil {
		t.Fatal(err)
	} else if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits/misses %d/%d, want 1/1", m.Hits, m.Misses)
	}
	events := ring.Events()
	if len(events) != 2 {
		t.Fatalf("%d events for 2 requests", len(events))
	}
	var hit *obs.Event
	for i := range events {
		if events[i].Cache {
			hit = &events[i]
		}
	}
	if hit == nil {
		t.Fatal("no cache-hit event emitted")
	}
	if hit.Outcome != obs.OutcomeServed || hit.Drive != CacheDriveID || hit.Shard != 2 {
		t.Fatalf("hit event outcome %q drive %d shard %d, want served/%d/2",
			hit.Outcome, hit.Drive, hit.Shard, CacheDriveID)
	}
	if hit.Route != "affinity" {
		t.Fatalf("hit event route %q, want the offered route", hit.Route)
	}
	if hit.QueueSec != 0 || hit.MountSec != 0 || hit.RobotSec != 0 {
		t.Fatalf("hit event pays tape-path time: %+v", hit)
	}
	if got, want := hit.SojournSec(), hit.AttributionSum(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("hit attribution %g != sojourn %g", want, got)
	}
	if hit.SojournSec() <= 0 {
		t.Fatal("hit completed instantaneously — disk model not priced in")
	}
}
