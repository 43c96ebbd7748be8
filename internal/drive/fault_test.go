package drive

import (
	"errors"
	"testing"

	"serpentine/internal/fault"
)

// With no injector attached the drive must behave bit-identically to
// a drive built before faults existed: same times, same noise stream,
// same stats. This is the acceptance gate that keeps every existing
// experiment's output byte-identical.
func TestNoInjectorIsBitIdentical(t *testing.T) {
	tape := newTape(t, 1)
	a := New(tape)
	b := New(tape)
	b.AttachFaults(nil)
	order := []int{100000, 5000, 400000, 399999, 123, 600000}
	ta, errA := a.ExecuteOrder(order, 2)
	tb, errB := b.ExecuteOrder(order, 2)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if ta != tb || a.Clock() != b.Clock() || a.Stats() != b.Stats() || a.Position() != b.Position() {
		t.Fatalf("AttachFaults(nil) diverged: %.6f vs %.6f", ta, tb)
	}
}

func TestOvershootLandsPastTargetAndCharges(t *testing.T) {
	d := New(newTape(t, 1))
	d.AttachFaults(fault.New(fault.Config{OvershootRate: 1, Seed: 2}))
	el, err := d.Locate(200000)
	if !errors.Is(err, ErrOvershoot) {
		t.Fatalf("err = %v, want overshoot", err)
	}
	if d.Position() <= 200000 {
		t.Fatalf("head at %d, want past 200000", d.Position())
	}
	if d.Position() >= 200000+576 {
		t.Fatalf("head at %d, overshoot too large", d.Position())
	}
	if el <= 0 || d.Clock() != el {
		t.Fatalf("elapsed %.2f not charged to clock %.2f", el, d.Clock())
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Pos != d.Position() || fe.Segment != 200000 {
		t.Fatalf("fault context %+v inconsistent with drive", fe)
	}
}

func TestLostPositionGatesEverythingUntilRecalibrate(t *testing.T) {
	d := New(newTape(t, 1))
	d.AttachFaults(fault.New(fault.Config{LostRate: 1, Seed: 3}))
	if _, err := d.Locate(300000); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("err = %v, want lost position", err)
	}
	if !d.Lost() {
		t.Fatal("drive not marked lost")
	}
	attemptCost := d.Clock()
	if attemptCost <= 0 {
		t.Fatal("failed locate attempt not charged")
	}
	if _, err := d.Locate(100); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("locate while lost: %v", err)
	}
	if _, err := d.Read(1); !errors.Is(err, ErrLostPosition) {
		t.Fatalf("read while lost: %v", err)
	}
	if d.Clock() != attemptCost {
		t.Fatal("gated operations charged time")
	}
	rt := d.Recalibrate()
	if d.Lost() || d.Position() != 0 {
		t.Fatal("recalibrate did not restore the drive to BOT")
	}
	if rt < RecalibrateSec {
		t.Fatalf("recalibration cost %.2f below the settle floor", rt)
	}
	st := d.Stats()
	if st.Recalibrations != 1 || st.Rewinds != 1 {
		t.Fatalf("stats %+v: want 1 recalibration counting as 1 rewind", st)
	}
}

func TestTransientReadChargesAndMoves(t *testing.T) {
	// All reads fail transiently; retrying forever keeps failing but
	// each attempt costs time and tape motion.
	d := New(newTape(t, 1))
	d.AttachFaults(fault.New(fault.Config{TransientRate: 1, Seed: 4}))
	if _, err := d.Locate(1000); err != nil {
		t.Fatal(err)
	}
	before := d.Clock()
	el, err := d.Read(4)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want transient", err)
	}
	if el <= 0 || d.Clock() != before+el {
		t.Fatal("failed read attempt not charged")
	}
	if d.Position() != 1004 {
		t.Fatalf("head at %d after streaming 4 segments from 1000", d.Position())
	}
	if d.Stats().FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", d.Stats().FaultsInjected)
	}
}

func TestMediaErrorIsPermanentAndDeterministic(t *testing.T) {
	inj := fault.New(fault.Config{MediaRate: 0.01, Seed: 5})
	// Find a bad segment away from BOT.
	bad := -1
	for s := 1000; s < 200000; s++ {
		if inj.MediaBad(s) {
			bad = s
			break
		}
	}
	if bad < 0 {
		t.Fatal("no media-bad segment found at rate 0.01")
	}
	d := New(newTape(t, 1))
	d.AttachFaults(inj)
	if _, err := d.Locate(bad - 2); err != nil {
		t.Fatal(err)
	}
	_, err := d.Read(5)
	if !errors.Is(err, ErrMedia) {
		t.Fatalf("err = %v, want media", err)
	}
	if d.Position() != bad {
		t.Fatalf("head parked at %d, want the bad segment %d", d.Position(), bad)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Segment != bad {
		t.Fatalf("fault names segment %d, want %d", fe.Segment, bad)
	}
	// Retry fails identically: media errors never clear.
	if _, err := d.Read(1); !errors.Is(err, ErrMedia) {
		t.Fatalf("retry err = %v, want media", err)
	}
}

func TestWaitChargesOnlyFiniteDurations(t *testing.T) {
	d := New(newTape(t, 1))
	d.Wait(2.5)
	if d.Clock() != 2.5 || d.Stats().WaitSec != 2.5 {
		t.Fatalf("wait not charged: clock %.2f", d.Clock())
	}
	for _, bad := range []float64{0, -1, nan(), inf()} {
		d.Wait(bad)
	}
	if d.Clock() != 2.5 {
		t.Fatalf("degenerate waits charged: clock %.2f", d.Clock())
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// Injected faults must be reproducible: the same seed gives the same
// fault sequence, clock and stats.
func TestFaultedRunReproducible(t *testing.T) {
	run := func() (float64, Stats) {
		d := New(newTape(t, 1))
		d.AttachFaults(fault.New(fault.Default(9)))
		for _, lbn := range []int{50000, 300000, 120000, 7, 611111} {
			d.Locate(lbn)
			d.Read(1)
			if d.Lost() {
				d.Recalibrate()
			}
		}
		return d.Clock(), d.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("faulted run not reproducible: %.6f vs %.6f", c1, c2)
	}
}
