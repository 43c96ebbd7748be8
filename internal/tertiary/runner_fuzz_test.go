package tertiary

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/obs"
)

// FuzzRunnerAdvance pins the Runner's quiescence skip. The runner is
// fed the stream as the fleet feeds a shard — advance to each arrival
// instant, offer everything carrying it — with arbitrary extra
// AdvanceTo calls interleaved: the clock's own instant again, the
// previous arrival instant, times inside the idle gap before the next
// arrival, times behind the clock, a repeat of the instant just
// offered, and trailing times past the last event (up to +Inf) before
// Finish. Most of those land on a settled loop and return without
// stepping, with and without lifecycle faults, a bounded queue and a
// deadline budget. Two oracles:
//
//   - After every advance, the probes a router reads (Now, QueueDepth,
//     Headroom, Mounted, CartridgeLost, the completions recorded so
//     far) must equal those of a twin runner that steps on every call.
//     Deferring work never changes a runner's final output, so only
//     the probes can show a skip taken too eagerly.
//   - Completions, metrics and wide events at Finish must be
//     reflect.DeepEqual to one Run over the same stream.
func FuzzRunnerAdvance(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x12, 0xa3, 0x34, 0xc5}, []byte{0x03, 0x00, 0x05, 0x0a, 0x01, 0x7e}, byte(0), byte(7))
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x40, 0x02}, []byte{0x02, 0x41, 0x02, 0x03, 0x13, 0x33, 0x07}, byte(0x0f), byte(1))
	f.Add([]byte{0xff, 0x00, 0x7f, 0x80, 0x3c, 0x10, 0x90}, []byte{0x07, 0xfe, 0x05, 0x06, 0x03, 0xff, 0x01}, byte(0x1d), byte(74))
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}, []byte{0x03, 0x02, 0x06, 0x0a, 0x03, 0x03, 0x07, 0x0b}, byte(0x37), byte(5))

	profile := geometry.Tiny()
	serials := []int64{102, 101} // out of serial order: indices are positions, not ranks
	cat := NewCatalog()
	pl := NewPlacement()
	const perTape = 8
	for ti, serial := range serials {
		tape := geometry.MustGenerate(profile, serial)
		stride := tape.Segments() / perTape
		for i := 0; i < perTape; i++ {
			segs := 1
			if i%3 == 0 {
				segs = 4
			}
			id := fmt.Sprintf("t%d/o%d", serial, i)
			if err := cat.Put(Object{ID: id, Tape: serial, Start: i * stride, Segments: segs}); err != nil {
				f.Fatal(err)
			}
			other := serials[(ti+1)%len(serials)]
			if err := pl.Put(id, Object{Tape: other, Start: i*stride + stride/2, Segments: segs}); err != nil {
				f.Fatal(err)
			}
		}
	}
	base, err := New(Config{Profile: profile, Tapes: serials, Placement: pl}, cat)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data, extra []byte, knobs, seed byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		if len(extra) > 96 {
			extra = extra[:96]
		}
		var (
			reqs    []Request
			arrival float64
		)
		for _, b := range data {
			// b>>4 == 0 repeats the previous instant, so same-time
			// groups occur.
			arrival += float64(b>>4) * 20
			reqs = append(reqs, Request{
				ObjectID:   fmt.Sprintf("t%d/o%d", serials[b&1], int(b>>1)%perTape),
				Arrival:    arrival,
				BestEffort: b&8 != 0,
			})
		}

		cfg := Config{Profile: profile, Tapes: serials, Drives: 2, BatchLimit: 4}
		if knobs&1 != 0 {
			cfg.Lifecycle = fault.LifecycleConfig{
				DriveMTTFSec:      float64(1+seed&3) * 300,
				DriveMTTRSec:      200 + float64(seed>>2&3)*100,
				CartridgeLossRate: float64(seed>>4&3) / 8,
				RobotStallRate:    0.2,
				BadSpotRate:       0.25,
				Seed:              int64(seed),
			}
		}
		if knobs&2 != 0 {
			cfg.QueueCap = 3
		}
		if knobs&4 != 0 {
			cfg.DeadlineSec = 400
		}
		if knobs&8 != 0 {
			cfg.Placement = pl
		}
		if knobs&16 != 0 {
			cfg.BatchLimit = 0
		}

		wantRing := obs.NewEventRing(len(reqs) + 1)
		cfg.Events = wantRing
		wantComps, wantM, err := base.Clone(cfg).Run(reqs)
		if err != nil {
			t.Fatal(err)
		}

		gotRing := obs.NewEventRing(len(reqs) + 1)
		cfg.Events = gotRing
		r, err := base.Clone(cfg).StartRun()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Events = nil
		ref, err := base.Clone(cfg).StartRun()
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		nextByte := func() (byte, bool) {
			if pos >= len(extra) {
				return 0, false
			}
			pos++
			return extra[pos-1], true
		}
		advance := func(at float64) {
			t.Helper()
			if err := r.AdvanceTo(at); err != nil {
				t.Fatalf("AdvanceTo(%g) at clock %g: %v", at, r.Now(), err)
			}
			// The twin steps unconditionally: AdvanceTo without the skip.
			if err := ref.s.stepTo(max(at, ref.s.now)); err != nil {
				t.Fatal(err)
			}
			if got, want := runnerProbes(r, serials), runnerProbes(ref, serials); !reflect.DeepEqual(got, want) {
				t.Fatalf("AdvanceTo(%g): probes differ from a runner that always steps:\ngot  %+v\nwant %+v", at, got, want)
			}
		}
		prev := 0.0
		for i := 0; i < len(reqs); {
			at := reqs[i].Arrival
			// Up to three extra advances before the instant, none past
			// it: an advance beyond an arrival not yet offered could
			// move the clock past that arrival.
			ctl, _ := nextByte()
			for k := 0; k < int(ctl&3); k++ {
				e, ok := nextByte()
				if !ok {
					break
				}
				frac := float64(e>>2) / 63
				switch e & 3 {
				case 0:
					advance(r.Now())
				case 1:
					advance(prev)
				case 2:
					advance(prev + (at-prev)*frac)
				case 3:
					advance(r.Now() - 1 - frac*100)
				}
			}
			advance(at)
			for ; i < len(reqs) && reqs[i].Arrival == at; i++ {
				if err := r.Offer(reqs[i]); err != nil {
					t.Fatal(err)
				}
				if err := ref.Offer(reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// Re-advancing to the instant just offered is legal once
			// the whole instant is in. The offers unsettled the loop,
			// so it steps, but it leaves the instant itself to the
			// next advance.
			if ctl&4 != 0 {
				advance(at)
			}
			prev = at
		}
		for {
			e, ok := nextByte()
			if !ok {
				break
			}
			if e == 0xff {
				advance(math.Inf(1))
				continue
			}
			advance(prev + float64(e)*50)
		}
		gotComps, gotM, err := r.Finish()
		if err != nil {
			t.Fatal(err)
		}

		if gotM != wantM {
			t.Fatalf("metrics diverge:\nrunner: %+v\nrun:    %+v", gotM, wantM)
		}
		if !reflect.DeepEqual(gotComps, wantComps) {
			t.Fatalf("completions diverge: runner %d vs run %d", len(gotComps), len(wantComps))
		}
		if got, want := gotRing.Events(), wantRing.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("wide events diverge: runner %d vs run %d", len(got), len(want))
		}
	})
}

// probes is what a router can read off a runner between advances.
type probes struct {
	Now       float64
	Depth     int
	Headroom  float64
	Mounted   []bool
	Lost      []bool
	Completed []Completion
}

func runnerProbes(r *Runner, serials []int64) probes {
	p := probes{Now: r.Now(), Depth: r.QueueDepth(), Headroom: r.Headroom(), Completed: r.Completed()}
	for _, serial := range serials {
		ci := r.s.l.Cartridge(serial)
		p.Mounted = append(p.Mounted, r.Mounted(ci))
		p.Lost = append(p.Lost, r.CartridgeLost(ci))
	}
	return p
}
