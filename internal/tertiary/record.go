package tertiary

import "serpentine/internal/obs"

// CacheDriveID is the Drive of a staging-tier cache hit's entry: the
// staging disk is not one of the library's transports.
const CacheDriveID = -1

// Outcome is a request's terminal state, the record's one-byte form of
// the wide event's Outcome string.
type Outcome uint8

// The outcomes partition the offered stream.
const (
	OutcomeServed Outcome = iota
	OutcomeFailed
	OutcomeRejected
	OutcomeShed
)

var outcomeNames = [...]string{obs.OutcomeServed, obs.OutcomeFailed, obs.OutcomeRejected, obs.OutcomeShed}

// String is the outcome's wide-event name.
func (o Outcome) String() string { return outcomeNames[o] }

// Terminal is one entry of a run's terminal record: how, where and when
// a request ended. A run appends one per offered request, a staging
// tier one per cache hit (Runner.RecordHit). Entries hold no pointers,
// and completions and wide events are projections of them.
type Terminal struct {
	// Done is the terminal instant: the completion, the failure, or
	// the shed or reject decision.
	Done float64
	// Seq is the emission ordinal, 1-based and dense per run; cache
	// hits draw from the same sequence.
	Seq int64
	// Tape is the serial of the copy the request last targeted, and
	// Replica that copy's number (0 = primary).
	Tape int64
	Attr Attribution
	// Ref is the request's index in the run's offers (its arrivals),
	// or for a cache hit its index among the run's hits.
	Ref int32
	// Drive is the serving or failing drive, CacheDriveID for a cache
	// hit, or obs.EventNoDrive when no drive was involved.
	Drive   int32
	Replica int32
	Outcome Outcome
	Cache   bool
}

// terminal appends p's entry, drawing the next emission ordinal.
func (s *runState) terminal(p *pending, out Outcome, drive int, done float64, attr Attribution) {
	s.rec = append(s.rec, Terminal{
		Done:    done,
		Seq:     int64(len(s.rec)) + 1,
		Tape:    p.ext.tape,
		Attr:    attr,
		Ref:     p.ref,
		Drive:   int32(drive),
		Replica: int32(p.replica),
		Outcome: out,
	})
}

// unserved records a request ending unserved at virtual time at, with
// drive the drive involved in the final decision, if any. Its wait net
// of rescue time books as queue time, so the attribution telescopes.
func (s *runState) unserved(p *pending, out Outcome, drive int, at float64) {
	s.terminal(p, out, drive, at, Attribution{
		QueueSec:  at - p.req.Arrival - p.rescueSec,
		RescueSec: p.rescueSec,
	})
}

func (s *runState) request(t *Terminal) *pending {
	if t.Cache {
		return &s.hits[t.Ref]
	}
	return &s.arrivals[t.Ref]
}

// object is the extent an entry's request last targeted: the catalog
// copy, or a replica.
func (s *runState) object(t *Terminal) Object {
	p := s.request(t)
	if t.Replica > 0 {
		return s.cfg.Placement.Get(p.req.ObjectID)[t.Replica-1]
	}
	return p.ext.object(p.req.ObjectID)
}

func (s *runState) completion(t *Terminal) Completion {
	return Completion{Request: s.request(t).req, Object: s.object(t), Done: t.Done, DriveID: int(t.Drive), Attribution: t.Attr}
}

// event projects the entry onto its wide event, written in place: every
// field of *ev is overwritten, Labels with nil.
func (s *runState) event(t *Terminal, ev *obs.Event) {
	p, a := s.request(t), &t.Attr
	*ev = obs.Event{
		Seq:         t.Seq,
		Shard:       s.cfg.Shard,
		Object:      p.req.ObjectID,
		Tape:        t.Tape,
		Drive:       int(t.Drive),
		Class:       p.req.Class(),
		Outcome:     t.Outcome.String(),
		Cache:       t.Cache,
		Route:       p.route.String(),
		Replica:     int(t.Replica),
		ArrivalSec:  p.req.Arrival,
		DoneSec:     t.Done,
		QueueSec:    a.QueueSec,
		RobotSec:    a.RobotSec,
		MountSec:    a.MountSec,
		LocateSec:   a.LocateSec,
		TransferSec: a.TransferSec,
		RetrySec:    a.RetrySec,
		RescueSec:   a.RescueSec,
	}
}

// byDoneSeq sorts a finished record by terminal time (±0 equal), then
// emission ordinal. Seq is unique, so the order is total. It compares
// entries in place: they are too wide to copy per comparison.
type byDoneSeq []Terminal

func (r byDoneSeq) Len() int      { return len(r) }
func (r byDoneSeq) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r byDoneSeq) Less(i, j int) bool {
	a, b := &r[i], &r[j]
	return a.Done < b.Done || !(b.Done < a.Done) && a.Seq < b.Seq
}

// completions projects the sorted record onto the served requests in
// completion order, with the cache hits ahead of the library's own
// fetches at one instant: a stable sort by Done of hits, then fetches.
func (s *runState) completions() []Completion {
	out := make([]Completion, 0, s.m.Served+len(s.hits))
	for i := range s.rec {
		t := &s.rec[i]
		if t.Outcome != OutcomeServed {
			continue
		}
		out = append(out, s.completion(t))
		for k := len(out) - 1; t.Cache && k > 0 && out[k-1].Done == t.Done && out[k-1].DriveID != CacheDriveID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}
