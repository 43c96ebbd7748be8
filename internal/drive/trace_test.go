package drive

import (
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
)

func traceTape(t *testing.T) *geometry.Tape {
	t.Helper()
	tape, err := geometry.Generate(geometry.DLT4000(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

func TestTraceEmitsEveryOp(t *testing.T) {
	tape := traceTape(t)
	var evs []Event
	d := New(tape)
	d.AttachTrace(func(ev Event) { evs = append(evs, ev) })

	if _, err := d.Locate(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(1); err != nil {
		t.Fatal(err)
	}
	d.Wait(2.5)
	d.Rewind()
	d.Recalibrate()
	if _, err := d.ReadEntireTape(); err != nil {
		t.Fatal(err)
	}

	var ops []string
	for _, ev := range evs {
		ops = append(ops, ev.Op.String())
	}
	// Recalibrate emits its inner rewind first, then itself.
	want := []string{"locate", "read", "wait", "rewind", "rewind", "recalibrate", "fullread"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
	// Events carry the virtual clock and charge, monotonically.
	if evs[0].ClockSec != 0 {
		t.Fatalf("first event starts at %g, want 0", evs[0].ClockSec)
	}
	if evs[0].ElapsedSec <= 0 {
		t.Fatal("locate event has no elapsed time")
	}
	if evs[2].ElapsedSec != 2.5 {
		t.Fatalf("wait event elapsed %g, want 2.5", evs[2].ElapsedSec)
	}
	for _, ev := range evs {
		if ev.Err != "" {
			t.Fatalf("unexpected error class %q on %s", ev.Err, ev.Op)
		}
	}
}

func TestTraceClassifiesFaults(t *testing.T) {
	tape := traceTape(t)
	var evs []Event
	d := New(tape)
	d.AttachFaults(fault.New(fault.Config{TransientRate: 1, Seed: 3}))
	d.AttachTrace(func(ev Event) { evs = append(evs, ev) })
	if _, err := d.Locate(100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(1); err == nil {
		t.Fatal("expected an injected transient error")
	}
	last := evs[len(evs)-1]
	if last.Op != OpRead || last.Err != fault.Transient.String() {
		t.Fatalf("trace event = %+v, want read/%s", last, fault.Transient)
	}
	// Out-of-range usage errors classify too.
	if _, err := d.Locate(-1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	last = evs[len(evs)-1]
	if last.Err != "out-of-range" || last.ElapsedSec != 0 {
		t.Fatalf("out-of-range event = %+v", last)
	}
}

// TestTraceDoesNotPerturbTiming pins the observability layer's core
// guarantee: attaching a trace hook changes nothing about the drive's
// behaviour — clock, position and stats are bit-identical to an
// untraced drive over the same operation sequence.
func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(fn TraceFunc) *Drive {
		d := New(traceTape(t))
		d.AttachTrace(fn)
		for _, seg := range []int{9000, 42, 300000, 77} {
			if _, err := d.Locate(seg); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Read(2); err != nil {
				t.Fatal(err)
			}
		}
		d.Rewind()
		return d
	}
	traced := run(func(Event) {})
	plain := run(nil)
	if traced.Clock() != plain.Clock() {
		t.Fatalf("trace hook changed the clock: %g vs %g", traced.Clock(), plain.Clock())
	}
	if traced.Position() != plain.Position() || traced.Stats() != plain.Stats() {
		t.Fatal("trace hook changed drive state")
	}
}
