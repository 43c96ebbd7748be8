package drive

import (
	"errors"

	"serpentine/internal/fault"
)

// Op is a drive primitive, as the trace hook reports it. The values
// are dense from 0, so observers keep per-op state in flat arrays
// indexed by Op instead of keying maps by name on every event.
type Op uint8

// The primitives, one per public operation, and their count.
const (
	OpLocate Op = iota
	OpRead
	OpRewind
	OpRecalibrate
	OpWait
	OpFullRead
	NumOps = iota
)

var opNames = [NumOps]string{"locate", "read", "rewind", "recalibrate", "wait", "fullread"}

// String returns the primitive's trace name: the op label of the
// drive metrics and the name of its leaf span.
func (o Op) String() string { return opNames[o] }

// Event is one completed drive operation: the primitive, its target
// segment (-1 for none), the drive clock at its start, its virtual
// duration, and its error class ("" on success).
type Event struct {
	ClockSec   float64
	Op         Op
	Segment    int
	ElapsedSec float64
	Err        string
}

// TraceFunc observes completed drive operations for the observability
// subsystem: one Event per public primitive call. Recalibrate emits
// both its inner rewind's event and its own, in that order, mirroring
// the physical sequence.
//
// The hook runs synchronously on the drive's (single) operating
// goroutine, so it must not call back into the drive.
type TraceFunc func(Event)

// AttachTrace attaches or (with nil) removes the trace hook; without
// one (the default) tracing costs nothing on the hot path.
func (d *Drive) AttachTrace(fn TraceFunc) { d.trace = fn }

// emit reports one completed operation to the hook, if any. start is
// the clock reading at the operation's beginning; the elapsed time is
// whatever the operation charged since.
func (d *Drive) emit(op Op, segment int, start float64, err error) {
	if d.trace == nil {
		return
	}
	d.trace(Event{
		ClockSec:   start,
		Op:         op,
		Segment:    segment,
		ElapsedSec: d.clock - start,
		Err:        errClass(err),
	})
}

// errClass renders an operation error as a stable short label: the
// injected-fault class when there is one, a coarse sentinel name
// otherwise.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe.Class.String()
	}
	switch {
	case errors.Is(err, ErrOutOfRange):
		return "out-of-range"
	case errors.Is(err, ErrEndOfTape):
		return "end-of-tape"
	case errors.Is(err, ErrLostPosition):
		return fault.LostPosition.String()
	default:
		return "error"
	}
}
