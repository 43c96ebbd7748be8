package drive

import (
	"errors"

	"serpentine/internal/fault"
	"serpentine/internal/obs"
)

// TraceFunc observes completed drive operations for the observability
// subsystem: one obs.TraceEvent per public primitive (locate, read,
// rewind, recalibrate, wait, fullread), stamped with the virtual
// clock at the start of the operation, its virtual duration, and an
// error class for failed attempts. Recalibrate emits both its inner
// rewind's event and its own, in that order, mirroring the physical
// sequence.
//
// The hook runs synchronously on the drive's (single) operating
// goroutine, so it must not call back into the drive.
type TraceFunc func(obs.TraceEvent)

// NumOps is the number of distinct operation names TraceFunc can
// observe; OpIndex maps each onto a dense index so observers can keep
// per-op state in flat arrays instead of keying maps by name on every
// event.
const NumOps = 6

// OpIndex returns the dense index of a primitive's trace name, or -1
// for a name outside the fixed set.
func OpIndex(op string) int {
	switch op {
	case "locate":
		return 0
	case "read":
		return 1
	case "rewind":
		return 2
	case "recalibrate":
		return 3
	case "wait":
		return 4
	case "fullread":
		return 5
	}
	return -1
}

// AttachTrace attaches or (with nil) removes the trace hook; without
// one (the default) tracing costs nothing on the hot path.
func (d *Drive) AttachTrace(fn TraceFunc) { d.trace = fn }

// emit reports one completed operation to the hook, if any. start is
// the clock reading at the operation's beginning; the elapsed time is
// whatever the operation charged since.
func (d *Drive) emit(op string, segment int, start float64, err error) {
	if d.trace == nil {
		return
	}
	d.trace(obs.TraceEvent{
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
