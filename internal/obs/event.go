package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The wide-event layer is the per-request half of the observability
// subsystem: where counters aggregate and spans explain intervals, a
// wide event is the one canonical record of a request's whole life —
// identity, routing, placement, outcome, and the full latency
// attribution vector — emitted exactly once when the request reaches
// a terminal state (served, failed, rejected, or shed). Like the rest
// of the package it never reads wall time: every stamp is a
// virtual-clock reading supplied by the emitter, so a deterministic
// run produces a byte-identical event log at any worker count and
// results/events.jsonl can be committed and diffed like the numeric
// tables.

// Outcome values: every offered request ends in exactly one of these,
// so summing event counts by outcome reconciles with the metrics
// partition Served+Failed+Rejected+Shed.
const (
	OutcomeServed   = "served"
	OutcomeFailed   = "failed"
	OutcomeRejected = "rejected"
	OutcomeShed     = "shed"
)

// EventNoDrive marks an event that never reached a drive (rejected at
// admission, shed, or failed before dispatch). Cache hits carry the
// staging tier's pseudo-drive (-1, hsm.CacheDriveID); real serves
// carry the drive index.
const EventNoDrive = -2

// Event is one wide request record. Field order is the JSONL column
// order; encoding/json emits struct fields in declaration order and
// floats in shortest-round-trip form, so marshaling is deterministic.
type Event struct {
	// Seq orders events within one emitter: assigned by the ring at
	// Add time (1-based, dense) unless the event already carries one
	// (the fleet fold preserves per-shard sequence numbers).
	Seq int64 `json:"seq"`
	// Shard is the serving library's fleet shard, 0 outside a fleet.
	Shard int `json:"shard"`
	// Object names the requested object; Tape is the cartridge serial
	// the catalog placed it on (the primary copy's, for replicated
	// placements), -1 when the request never resolved.
	Object string `json:"object"`
	Tape   int64  `json:"tape"`
	// Drive is the serving drive index, hsm's CacheDriveID (-1) for a
	// staging-cache hit, or EventNoDrive (-2) when no drive was ever
	// involved.
	Drive int `json:"drive"`
	// Class is the request's service class ("standard" or
	// "best-effort").
	Class string `json:"class"`
	// Outcome is the terminal state: one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Cache reports whether the staging tier served the request.
	Cache bool `json:"cache"`
	// Route is the routing tier's decision for the request
	// ("affinity", "cross-shard", "unroutable", "routed"), "" outside
	// a fleet.
	Route string `json:"route,omitempty"`
	// Replica is the cartridge copy that finally served the request
	// (0 = primary).
	Replica int `json:"replica"`
	// ArrivalSec and DoneSec bound the request on the virtual clock;
	// DoneSec is the terminal instant (completion, failure, or the
	// shed/reject decision).
	ArrivalSec float64 `json:"arrival_sec"`
	DoneSec    float64 `json:"done_sec"`
	// The attribution vector decomposes DoneSec-ArrivalSec into the
	// phases of the request's journey; the components telescope to
	// the sojourn within 1e-9 for every outcome (non-served requests
	// book their whole wait as queue + rescue time).
	QueueSec    float64 `json:"queue_sec"`
	RobotSec    float64 `json:"robot_sec"`
	MountSec    float64 `json:"mount_sec"`
	LocateSec   float64 `json:"locate_sec"`
	TransferSec float64 `json:"transfer_sec"`
	RetrySec    float64 `json:"retry_sec"`
	RescueSec   float64 `json:"rescue_sec"`
	// Labels carry the emitting cell's coordinates (rate, shards,
	// router, ...) in recording order, attached when sweep cells fold
	// their events into a shared ring.
	Labels []Label `json:"labels,omitempty"`
}

// SojournSec is the request's terminal latency on the virtual clock.
func (e Event) SojournSec() float64 { return e.DoneSec - e.ArrivalSec }

// AttributionSum returns the total of the attribution components —
// the reconstructed sojourn.
func (e Event) AttributionSum() float64 {
	return e.QueueSec + e.RobotSec + e.MountSec + e.LocateSec + e.TransferSec + e.RetrySec + e.RescueSec
}

// EventRing is a bounded, deterministic store of wide events: a ring
// retaining the most recent cap events in emission order. It is safe
// for concurrent use; within one single-threaded simulation the store
// content is a pure function of the run. A nil *EventRing is a valid
// no-op sink — every method no-ops — so callers never branch on
// whether wide events are enabled.
//
// A run keeps its outcomes in its own record (tertiary.Terminal) and
// projects events into a ring only once it finishes. A ring belongs
// where a reader outside the run holds the events: a caller keeping a
// log, or a live endpoint (Serve) reading while runs write to it.
type EventRing struct {
	mu sync.Mutex
	r  ring[Event]
}

// NewEventRing returns a ring retaining the most recent cap events
// (minimum 1), with all cap slots allocated up front, so Add never
// reallocates.
func NewEventRing(cap int) *EventRing {
	return &EventRing{r: newRing[Event](cap)}
}

// Add records one event, evicting the oldest when full. If the event
// carries no sequence number the ring assigns the next one (1-based,
// dense in emission order).
func (r *EventRing) Add(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Seq == 0 {
		ev.Seq = r.r.total + 1
	}
	r.r.add(ev)
}

// Events returns the retained events, oldest first.
func (r *EventRing) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.snapshot()
}

// Visit calls fn on every retained event, oldest first. fn reads the
// events in place: the pointer aliases the ring's own storage, must
// not be written through, and stays valid only until the next Add or
// Reset. Visit holds the ring's lock while fn runs, so fn must not
// call back into the ring.
func (r *EventRing) Visit(fn func(*Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.r.visit(fn)
}

// Total returns how many events were ever added; Dropped how many of
// those were evicted from the bounded store.
func (r *EventRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.total
}

// Dropped returns the number of evicted events.
func (r *EventRing) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.dropped
}

// Reset empties the ring and clears the vacated backing array so the
// ring does not pin evicted events' strings and label slices — the
// same stale-tail retention class the admission queue's compaction
// once had. Counters reset too.
func (r *EventRing) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.r.reset()
}

// maxEventLineBytes caps one line of a JSONL event log, trailing
// newline included: ReadEventsJSONL rejects a longer line, so
// WriteEventsJSONL refuses to emit one.
const maxEventLineBytes = 1 << 20

// errEventLineTooLong marks an event whose encoded line exceeds
// maxEventLineBytes.
var errEventLineTooLong = errors.New("encoded line over the event-log line cap")

// WriteEventsJSONL renders events one JSON object per line. Field
// order follows the Event struct and floats use encoding/json's
// shortest-round-trip formatting, so the output is byte-deterministic
// for a deterministic event sequence. An event whose line would exceed
// the reader's cap is an error naming it, so every log written reads
// back.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	for i, ev := range events {
		line.Reset()
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if line.Len() > maxEventLineBytes {
			return fmt.Errorf("obs: event %d (seq %d, object %.40q): %d bytes: %w", i, ev.Seq, ev.Object, line.Len(), errEventLineTooLong)
		}
		if _, err := bw.Write(line.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEventsJSONL parses a JSONL event log (blank lines skipped).
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxEventLineBytes)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
