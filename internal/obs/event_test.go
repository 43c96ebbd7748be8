package obs

import (
	"bytes"
	"errors"
	"io"
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

// visitAll collects what Visit hands its callback, by value.
func visitAll(r *EventRing) []Event {
	var out []Event
	r.Visit(func(ev *Event) { out = append(out, *ev) })
	return out
}

func TestEventRingVisit(t *testing.T) {
	r := NewEventRing(4)
	if got := visitAll(r); len(got) != 0 {
		t.Fatalf("empty ring visited %d events", len(got))
	}
	for i := 1; i <= 6; i++ {
		r.Add(Event{DoneSec: float64(i)})
	}
	// Six added, four retained: the walk starts at the oldest kept
	// event and wraps the ring in emission order.
	got := visitAll(r)
	if !reflect.DeepEqual(got, r.Events()) || len(got) != 4 || got[0].DoneSec != 3 || got[3].DoneSec != 6 {
		t.Fatalf("Visit = %+v, want the retained events t=3..6 in Events order", got)
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
	backing := r.r.buf[:cap(r.r.buf)]
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
	if err := WriteEventsJSONL(&buf, in); err != nil {
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

// TestEventsJSONLLineCap pins the writer to the reader's line cap: a
// 300 KB object ID of '<' escapes to a ~1.8 MB line, which the writer
// refuses instead of emitting a log that fails to re-read, while a
// line of exactly the cap still round-trips.
func TestEventsJSONLLineCap(t *testing.T) {
	var buf bytes.Buffer
	long := evAt(1, 1)
	long.Object = strings.Repeat("<", 300<<10)
	err := WriteEventsJSONL(&buf, []Event{evAt(2, 0.5), long})
	if !errors.Is(err, errEventLineTooLong) {
		t.Fatalf("writing a %d-byte object: err = %v, want the line-cap error", len(long.Object), err)
	}

	// Pad an object ID so the encoded line, newline included, is
	// exactly the cap; one byte more is refused.
	edge := evAt(1, 1)
	edge.Object = ""
	buf.Reset()
	if err := WriteEventsJSONL(&buf, []Event{edge}); err != nil {
		t.Fatal(err)
	}
	edge.Object = strings.Repeat("a", maxEventLineBytes-buf.Len())
	buf.Reset()
	if err := WriteEventsJSONL(&buf, []Event{edge}); err != nil {
		t.Fatalf("line of exactly the cap refused: %v", err)
	}
	if buf.Len() != maxEventLineBytes {
		t.Fatalf("edge line is %d bytes, want %d", buf.Len(), maxEventLineBytes)
	}
	back, err := ReadEventsJSONL(&buf)
	if err != nil || len(back) != 1 || back[0].Object != edge.Object {
		t.Fatalf("line of exactly the cap did not round-trip: %d events, err %v", len(back), err)
	}
	edge.Object += "a"
	if err := WriteEventsJSONL(io.Discard, []Event{edge}); !errors.Is(err, errEventLineTooLong) {
		t.Fatalf("line one byte over the cap: err = %v, want the line-cap error", err)
	}
}

func TestEventsJSONLDeterministic(t *testing.T) {
	in := []Event{evAt(1, 10.5), evAt(2, 1.0/3.0)}
	var a, b bytes.Buffer
	if err := WriteEventsJSONL(&a, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsJSONL(&b, in); err != nil {
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
	r.Visit(func(*Event) { t.Fatal("nil ring visited an event") })
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatal("nil ring is not a no-op")
	}
}
