package fleet

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"serpentine/internal/obs"
	"serpentine/internal/tertiary"
)

// This file keeps the event plane's original implementations as
// test-only oracles, the way the core package keeps refOPT: the fold
// that copied every shard log and sorted the full events, and the
// health feed that buffered whole events in a heap and released them
// in terminal-time order. The shipped foldRecords merges the shards'
// sorted terminal records and must reproduce both exactly — the feed
// as it ends a run, pumped once at +Inf.

// eventBefore is the merged log's order: DoneSec, then shard, then
// per-shard seq.
func eventBefore(a, b obs.Event) bool {
	if a.DoneSec != b.DoneSec {
		return a.DoneSec < b.DoneSec
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.Seq < b.Seq
}

// refFoldEvents is the copy-all-then-sort fold.
func refFoldEvents(dst *obs.EventRing, rings []*obs.EventRing, labels []obs.Label) {
	var all []obs.Event
	for _, r := range rings {
		all = append(all, r.Events()...)
	}
	sort.Slice(all, func(i, j int) bool { return eventBefore(all[i], all[j]) })
	for _, ev := range all {
		if len(labels) > 0 {
			ev.Labels = append([]obs.Label(nil), labels...)
		}
		dst.Add(ev)
	}
}

// refHealthFeed is the feed over a heap of whole events, keyed by
// tracker strings on every observation.
type refHealthFeed struct {
	tracker *obs.HealthTracker
	rings   []*obs.EventRing
	heap    []obs.Event
}

// pump harvests every ring and scores each buffered event whose
// terminal time is at or before now. A feed pumped more than once
// would harvest the rings again: the oracle is pumped once.
func (hf *refHealthFeed) pump(now float64) {
	for _, r := range hf.rings {
		r.Visit(func(ev *obs.Event) { hf.push(*ev) })
	}
	for len(hf.heap) > 0 && hf.heap[0].DoneSec <= now {
		ev := hf.pop()
		good := ev.Outcome == obs.OutcomeServed
		key := "shard=" + strconv.Itoa(ev.Shard)
		hf.tracker.Observe(key, ev.DoneSec, good)
		if ev.Drive >= 0 {
			hf.tracker.Observe(key+"/drive="+strconv.Itoa(ev.Drive), ev.DoneSec, good)
		}
	}
}

func (hf *refHealthFeed) push(ev obs.Event) {
	hf.heap = append(hf.heap, ev)
	i := len(hf.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(hf.heap[i], hf.heap[parent]) {
			break
		}
		hf.heap[i], hf.heap[parent] = hf.heap[parent], hf.heap[i]
		i = parent
	}
}

func (hf *refHealthFeed) pop() obs.Event {
	top := hf.heap[0]
	n := len(hf.heap) - 1
	hf.heap[0] = hf.heap[n]
	hf.heap[n] = obs.Event{}
	hf.heap = hf.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventBefore(hf.heap[l], hf.heap[small]) {
			small = l
		}
		if r < n && eventBefore(hf.heap[r], hf.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		hf.heap[i], hf.heap[small] = hf.heap[small], hf.heap[i]
		i = small
	}
	return top
}

// foldDoneTimes are the terminal times the fuzzer draws from: few
// enough that DoneSec ties across and within shards are common, with
// both signed zeros and an infinity.
var foldDoneTimes = []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2.25, 7, math.Inf(1)}

// foldOutcomes maps a logged outcome back onto the record's enum.
var foldOutcomes = map[string]tertiary.Outcome{
	obs.OutcomeServed: tertiary.OutcomeServed, obs.OutcomeFailed: tertiary.OutcomeFailed,
	obs.OutcomeRejected: tertiary.OutcomeRejected, obs.OutcomeShed: tertiary.OutcomeShed,
}

// FuzzFleetFoldEquivalence builds random per-shard event logs — DoneSec
// ties across shards, ±0, every outcome, cache and drive pseudo-IDs —
// and checks both consumers of the one merge walk against their
// oracles: the health fill must leave the same tracker scores as the
// heap feed pumped once at +Inf, and the fold must produce a merged log
// reflect.DeepEqual to the copy-all-then-sort fold's, labels included.
// The walk reads each log as the terminal record Finish leaves: one
// entry per event, sorted by (Done, Seq), projecting back onto the
// logged event.
func FuzzFleetFoldEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 7, 7, 7, 0, 0, 0, 255, 1, 2})
	f.Add([]byte{4, 16, 33, 50, 67, 84, 101, 118, 135, 152, 169, 186, 203, 220, 237, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shards := int(data[0])%4 + 1
		var labels []obs.Label
		if data[0]&0x80 != 0 {
			labels = []obs.Label{obs.L("rate", "240"), obs.L("router", "affinity")}
		}
		rings := make([]*obs.EventRing, shards)
		for s := range rings {
			rings[s] = obs.NewEventRing(len(data))
		}
		outcomes := []string{obs.OutcomeServed, obs.OutcomeServed, obs.OutcomeFailed, obs.OutcomeShed}
		for i, b := range data[1:] {
			s := int(b) % shards
			rings[s].Add(obs.Event{
				Shard:   s,
				Object:  "t" + strconv.Itoa(i) + "/o0",
				Drive:   int(b>>3)%4 - 2, // EventNoDrive, the cache, drives 0 and 1
				Outcome: outcomes[int(b>>2)%len(outcomes)],
				Cache:   b&1 != 0,
				DoneSec: foldDoneTimes[int(b>>5)%len(foldDoneTimes)],
			})
		}
		recs := make([][]tertiary.Terminal, shards)
		logs := make([][]obs.Event, shards)
		for s, r := range rings {
			logs[s] = r.Events()
			for _, ev := range logs[s] {
				recs[s] = append(recs[s], tertiary.Terminal{
					Done: ev.DoneSec, Seq: ev.Seq, Drive: int32(ev.Drive), Cache: ev.Cache,
					Outcome: foldOutcomes[ev.Outcome],
				})
			}
			slices.SortStableFunc(recs[s], func(a, b tertiary.Terminal) int { return cmp.Compare(a.Done, b.Done) })
		}
		event := func(s int, t *tertiary.Terminal) obs.Event { return logs[s][t.Seq-1] }
		got, want := obs.NewEventRing(len(data)), obs.NewEventRing(len(data))
		tracker, refTracker := obs.NewHealthTracker(10, 100), obs.NewHealthTracker(10, 100)
		foldRecords(recs, event, got, labels, tracker)

		ref := &refHealthFeed{tracker: refTracker, rings: rings}
		ref.pump(math.Inf(1))
		if got, want := tracker.Scores(), refTracker.Scores(); !reflect.DeepEqual(got, want) {
			t.Fatalf("tracker scores %v, oracle %v", got, want)
		}

		refFoldEvents(want, rings, labels)
		if g, w := got.Events(), want.Events(); !reflect.DeepEqual(g, w) {
			t.Fatalf("fold diverged from the oracle:\ngot  %+v\nwant %+v", g, w)
		}
	})
}
