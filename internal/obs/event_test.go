package obs

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func evAt(seq int64, done float64) Event {
	return Event{Seq: seq, Object: "t0/o" + strconv.FormatInt(seq, 10),
		Tape: 3000, Drive: 0, Class: "standard", Outcome: OutcomeServed,
		ArrivalSec: done - 1, DoneSec: done}
}

func TestEventRingAddEvict(t *testing.T) {
	r := NewEventRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(Event{DoneSec: float64(i)})
	}
	if r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("total %d dropped %d, want 5/2", r.Total(), r.Dropped())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("kept %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.DoneSec != float64(i+3) {
			t.Fatalf("kept[%d].DoneSec = %g, want %g (oldest-first tail)", i, ev.DoneSec, float64(i+3))
		}
		if ev.Seq != int64(i+3) {
			t.Fatalf("kept[%d].Seq = %d, want %d (dense 1-based)", i, ev.Seq, i+3)
		}
	}
}

func TestEventRingPreservesNonzeroSeq(t *testing.T) {
	r := NewEventRing(4)
	r.Add(Event{Seq: 42})
	r.Add(Event{})
	evs := r.Events()
	if evs[0].Seq != 42 {
		t.Fatalf("pre-stamped Seq rewritten to %d", evs[0].Seq)
	}
	if evs[1].Seq != 2 {
		t.Fatalf("auto Seq = %d, want 2 (total-based)", evs[1].Seq)
	}
}

// visitAll collects what Visit(from) hands its callback, by value.
func visitAll(r *EventRing, from int64) ([]Event, int64) {
	var out []Event
	next := r.Visit(from, func(ev *Event) { out = append(out, *ev) })
	return out, next
}

func TestEventRingVisit(t *testing.T) {
	r := NewEventRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(Event{DoneSec: float64(i)})
	}
	// Emission indices 0..5; retained are 2..5.
	if got, next := visitAll(r, 6); len(got) != 0 || next != 6 {
		t.Fatalf("visit past the end returned %d events, next %d", len(got), next)
	}
	got, next := visitAll(r, 4)
	if len(got) != 2 || got[0].DoneSec != 5 || got[1].DoneSec != 6 || next != 6 {
		t.Fatalf("Visit(4) = %+v next %d, want events at t=5,6 and next 6", got, next)
	}
	// Asking for more than is retained yields only what remains.
	got, _ = visitAll(r, 0)
	if len(got) != 4 || got[0].DoneSec != 3 {
		t.Fatalf("Visit(0) = %d events starting %g, want 4 starting t=3", len(got), got[0].DoneSec)
	}
	// An incremental consumer resumes where the last visit stopped.
	r.Add(Event{DoneSec: 7})
	if got, next = visitAll(r, next); len(got) != 1 || got[0].DoneSec != 7 || next != 7 {
		t.Fatalf("resumed visit = %+v next %d, want the t=7 event and next 7", got, next)
	}
}

// TestGrowingEventRingMatchesPreallocated pins that a growing ring is
// the preallocated ring with lazy storage: same retention, eviction,
// sequence numbers and counters for any add count around the bound,
// whatever its up-front hint.
func TestGrowingEventRingMatchesPreallocated(t *testing.T) {
	for _, c := range []struct{ n, hint, slots int }{
		{0, 0, 0}, {1, 0, 0}, {3, 2, 2}, {4, -1, 0}, {5, 2, 2}, {9, 99, 4},
	} {
		n := c.n
		a, b := NewEventRing(4), NewGrowingEventRing(4, c.hint)
		if cap(b.ring) != c.slots {
			t.Fatalf("hint %d preallocated %d slots, want %d", c.hint, cap(b.ring), c.slots)
		}
		for i := 0; i < n; i++ {
			a.Add(Event{DoneSec: float64(i)})
			b.Add(Event{DoneSec: float64(i)})
		}
		if !reflect.DeepEqual(a.Events(), b.Events()) || a.Total() != b.Total() || a.Dropped() != b.Dropped() {
			t.Fatalf("after %d adds: preallocated %+v, growing %+v", n, a.Events(), b.Events())
		}
	}
}

// TestEventRingResetClearsBacking pins the stale-tail retention fix:
// after Reset the backing array must hold no event strings or label
// slices from before.
func TestEventRingResetClearsBacking(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 4; i++ {
		r.Add(Event{Object: "big", Labels: []Label{L("k", "v")}})
	}
	r.Reset()
	if r.Total() != 0 || r.Dropped() != 0 || len(r.Events()) != 0 {
		t.Fatalf("reset ring not empty: total %d dropped %d kept %d", r.Total(), r.Dropped(), len(r.Events()))
	}
	backing := r.ring[:cap(r.ring)]
	for i, ev := range backing {
		if ev.Object != "" || ev.Labels != nil {
			t.Fatalf("backing[%d] still pins %+v after Reset", i, ev)
		}
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	in := []Event{
		evAt(1, 10.5),
		{Seq: 2, Shard: 1, Object: "t1/o0", Tape: 3001, Drive: EventNoDrive,
			Class: "best-effort", Outcome: OutcomeRejected, ArrivalSec: 3, DoneSec: 3,
			Labels: []Label{L("rate", "120")}},
		{Seq: 3, Object: "t0/o1", Tape: 3000, Drive: -1, Class: "standard",
			Outcome: OutcomeServed, Cache: true, Route: "affinity",
			ArrivalSec: 5, DoneSec: 5.1, LocateSec: 0.05, TransferSec: 0.05},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, in, 0); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestEventsJSONLHead(t *testing.T) {
	in := []Event{evAt(1, 1), evAt(2, 2), evAt(3, 3)}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, in, 2); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("head 2 wrote %d lines", n)
	}
}

func TestEventsJSONLDeterministic(t *testing.T) {
	in := []Event{evAt(1, 10.5), evAt(2, 1.0/3.0)}
	var a, b bytes.Buffer
	if err := WriteEventsJSONL(&a, in, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsJSONL(&b, in, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical events marshaled to different bytes")
	}
}

func TestEventAttributionSum(t *testing.T) {
	ev := Event{ArrivalSec: 1, DoneSec: 10,
		QueueSec: 2, RobotSec: 1, MountSec: 2, LocateSec: 1.5, TransferSec: 0.5, RetrySec: 1, RescueSec: 1}
	if ev.AttributionSum() != 9 || ev.SojournSec() != 9 {
		t.Fatalf("sum %g sojourn %g, want 9/9", ev.AttributionSum(), ev.SojournSec())
	}
}

func TestNilEventRingNoOps(t *testing.T) {
	var r *EventRing
	r.Add(Event{})
	r.Reset()
	if r.Events() != nil || r.Visit(3, func(*Event) { t.Fatal("nil ring visited an event") }) != 3 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil ring is not a no-op")
	}
}
