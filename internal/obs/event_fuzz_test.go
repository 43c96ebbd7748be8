package obs

import "testing"

// FuzzWideEventRing drives the bounded event ring with an arbitrary
// op-sequence and checks conservation: events in == retained +
// evicted, retention never exceeds the cap, eviction is strictly
// oldest-first, and Visit is consistent with Events.
func FuzzWideEventRing(f *testing.F) {
	f.Add(1, []byte{0})
	f.Add(4, []byte{0, 1, 2, 3, 4, 250, 0, 7})
	f.Add(16, []byte{9, 200, 9, 128, 7, 255, 1})
	f.Fuzz(func(t *testing.T, capEvents int, ops []byte) {
		if capEvents < -16 || capEvents > 1<<10 {
			return
		}
		r := NewEventRing(capEvents)
		effCap := capEvents
		if effCap < 1 {
			effCap = 1
		}
		var added int64
		for i, op := range ops {
			switch {
			case op >= 250: // reset
				r.Reset()
				added = 0
			default:
				r.Add(Event{DoneSec: float64(i), Object: "o"})
				added++
			}
			kept := r.Events()
			if len(kept) > effCap {
				t.Fatalf("ring holds %d events, cap %d", len(kept), effCap)
			}
			if r.Total() != added {
				t.Fatalf("total %d, added %d", r.Total(), added)
			}
			if r.Total() != int64(len(kept))+r.Dropped() {
				t.Fatalf("conservation: total %d != kept %d + dropped %d",
					r.Total(), len(kept), r.Dropped())
			}
			// Seqs are dense and increasing: eviction is oldest-first.
			for j := 1; j < len(kept); j++ {
				if kept[j].Seq != kept[j-1].Seq+1 {
					t.Fatalf("kept seqs %d then %d: not oldest-first", kept[j-1].Seq, kept[j].Seq)
				}
			}
			// Visit must see exactly the retained events, in order.
			seen := 0
			r.Visit(func(ev *Event) {
				if seen < len(kept) && ev.Seq != kept[seen].Seq {
					t.Fatalf("Visit event %d has seq %d, Events %d", seen, ev.Seq, kept[seen].Seq)
				}
				seen++
			})
			if seen != len(kept) {
				t.Fatalf("Visit saw %d events, Events %d", seen, len(kept))
			}
		}
	})
}

// FuzzSLOWindow drives one objective's engine with an arbitrary
// outcome sequence on a nondecreasing clock and checks after every op:
// each window's Total and Bad equal a brute count of the recorded
// samples with at > now-len, the SLI stays in [0,1] (1 on empty,
// never NaN), the budget is never negative, and burn rates are
// non-negative.
func FuzzSLOWindow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 0, 255, 0, 10, 20})
	f.Add([]byte{128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e, err := NewSLOEngine(SLOConfig{
			Objectives: []Objective{{Name: "avail", Target: 0.99}},
			WindowsSec: []float64{10, 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		var recorded int64
		var samples []sloSample
		for _, op := range ops {
			now += float64(op % 16)
			if op%5 == 0 {
				e.Advance(now)
			} else {
				e.Record("standard", now, op%3 != 0, float64(op))
				recorded++
				samples = append(samples, sloSample{at: now, bad: op%3 == 0})
			}
			for _, os := range e.Status() {
				if os.Total != recorded {
					t.Fatalf("cumulative total %d, recorded %d", os.Total, recorded)
				}
				if os.BudgetRemaining < 0 {
					t.Fatalf("budget remaining %g < 0", os.BudgetRemaining)
				}
				for _, ws := range os.Windows {
					var total, bad int64
					for _, smp := range samples {
						if smp.at > now-ws.WindowSec {
							total++
							if smp.bad {
								bad++
							}
						}
					}
					if ws.Total != total || ws.Bad != bad {
						t.Fatalf("window %gs holds %d/%d total/bad, brute count %d/%d", ws.WindowSec, ws.Total, ws.Bad, total, bad)
					}
					if ws.Total > recorded || ws.Total < 0 {
						t.Fatalf("window %gs holds %d of %d recorded", ws.WindowSec, ws.Total, recorded)
					}
					if ws.Bad < 0 || ws.Bad > ws.Total {
						t.Fatalf("window %gs bad %d of total %d", ws.WindowSec, ws.Bad, ws.Total)
					}
					if ws.SLI < 0 || ws.SLI > 1 || ws.SLI != ws.SLI {
						t.Fatalf("window %gs SLI %g outside [0,1]", ws.WindowSec, ws.SLI)
					}
					if ws.Total == 0 && ws.SLI != 1 {
						t.Fatalf("empty window SLI %g, want 1", ws.SLI)
					}
					if ws.Burn < 0 {
						t.Fatalf("burn %g < 0", ws.Burn)
					}
				}
			}
		}
	})
}
