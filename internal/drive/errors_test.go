package drive

import (
	"errors"
	"strings"
	"testing"

	"serpentine/internal/fault"
)

// Every failure path of the drive must wrap exactly one sentinel so
// that callers dispatch with errors.Is; injected faults must
// additionally expose a *FaultError through errors.As.
func TestErrorPathsWrapSentinels(t *testing.T) {
	segs := func(d *Drive) int { return d.Tape().Segments() }

	cases := []struct {
		name      string
		op        func(d *Drive) error
		drive     func(t *testing.T) *Drive
		sentinel  error
		wantFault bool        // a *FaultError must be exposed via errors.As
		class     fault.Class // its Class, when wantFault
	}{
		{
			name:     "locate below range",
			op:       func(d *Drive) error { _, err := d.Locate(-1); return err },
			sentinel: ErrOutOfRange,
		},
		{
			name:     "locate past end",
			op:       func(d *Drive) error { _, err := d.Locate(segs(d)); return err },
			sentinel: ErrOutOfRange,
		},
		{
			name:     "read of zero segments",
			op:       func(d *Drive) error { _, err := d.Read(0); return err },
			sentinel: ErrOutOfRange,
		},
		{
			name:     "read of negative segments",
			op:       func(d *Drive) error { _, err := d.Read(-3); return err },
			sentinel: ErrOutOfRange,
		},
		{
			name: "read past end of tape",
			op: func(d *Drive) error {
				if _, err := d.Locate(segs(d) - 2); err != nil {
					t.Fatal(err)
				}
				_, err := d.Read(10)
				return err
			},
			sentinel: ErrEndOfTape,
		},
		{
			name:  "transient read",
			drive: faultyDrive(fault.Config{TransientRate: 1, Seed: 1}),
			op: func(d *Drive) error {
				if _, err := d.Locate(1000); err != nil {
					t.Fatal(err)
				}
				_, err := d.Read(1)
				return err
			},
			sentinel:  ErrTransient,
			wantFault: true,
			class:     fault.Transient,
		},
		{
			name:      "locate overshoot",
			drive:     faultyDrive(fault.Config{OvershootRate: 1, Seed: 1}),
			op:        func(d *Drive) error { _, err := d.Locate(1000); return err },
			sentinel:  ErrOvershoot,
			wantFault: true,
			class:     fault.Overshoot,
		},
		{
			name:      "lost servo position",
			drive:     faultyDrive(fault.Config{LostRate: 1, Seed: 1}),
			op:        func(d *Drive) error { _, err := d.Locate(1000); return err },
			sentinel:  ErrLostPosition,
			wantFault: true,
			class:     fault.LostPosition,
		},
		{
			name:      "hard media error",
			drive:     faultyDrive(fault.Config{MediaRate: 1, Seed: 1}),
			op:        func(d *Drive) error { _, err := d.Read(1); return err },
			sentinel:  ErrMedia,
			wantFault: true,
			class:     fault.Media,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d *Drive
			if tc.drive != nil {
				d = tc.drive(t)
			} else {
				d = New(newTape(t, 1))
			}
			err := tc.op(d)
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			// Each failure wraps exactly one sentinel.
			for _, other := range []error{ErrOutOfRange, ErrEndOfTape, ErrTransient, ErrOvershoot, ErrLostPosition, ErrMedia} {
				if other != tc.sentinel && errors.Is(err, other) {
					t.Fatalf("%v also matches %v", err, other)
				}
			}
			var fe *FaultError
			if got := errors.As(err, &fe); got != tc.wantFault {
				t.Fatalf("errors.As(*FaultError) = %v, want %v", got, tc.wantFault)
			}
			if tc.wantFault {
				if fe.Class != tc.class {
					t.Fatalf("fault class %v, want %v", fe.Class, tc.class)
				}
				if fe.Op != "locate" && fe.Op != "read" {
					t.Fatalf("fault op %q", fe.Op)
				}
				if !strings.Contains(fe.Error(), "segment") {
					t.Fatalf("uninformative fault message %q", fe.Error())
				}
			}
		})
	}
}

// faultyDrive returns a drive constructor with the given fault mix.
func faultyDrive(cfg fault.Config) func(t *testing.T) *Drive {
	return func(t *testing.T) *Drive {
		t.Helper()
		d := New(newTape(t, 1))
		d.AttachFaults(fault.New(cfg))
		return d
	}
}
