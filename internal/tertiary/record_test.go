package tertiary

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestCompletionsHitsFirstOnTies pins the completion order projected
// from a finished record: exactly a stable sort by Done of the cache
// hits followed by the library's fetches, so a hit goes ahead of a
// fetch completing at the same instant and each keeps emission order.
// Random records with few distinct Done values make such ties common.
func TestCompletionsHitsFirstOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		s := &runState{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			req := Request{ObjectID: "x", Arrival: float64(i)}
			done := float64(rng.Intn(4))
			if rng.Intn(2) == 0 {
				s.hits = append(s.hits, pending{req: req, ref: int32(len(s.hits))})
				s.terminal(&s.hits[len(s.hits)-1], OutcomeServed, CacheDriveID, done, Attribution{})
				s.rec[len(s.rec)-1].Cache = true
				continue
			}
			s.arrivals = append(s.arrivals, pending{req: req, ref: int32(len(s.arrivals))})
			out := OutcomeServed
			if rng.Intn(4) == 0 {
				out = OutcomeFailed
			}
			s.terminal(&s.arrivals[len(s.arrivals)-1], out, 0, done, Attribution{})
		}
		var hits, fetches []Completion
		for i := range s.rec {
			switch t := &s.rec[i]; {
			case t.Outcome != OutcomeServed:
			case t.Cache:
				hits = append(hits, s.completion(t))
			default:
				fetches = append(fetches, s.completion(t))
			}
		}
		want := append(hits, fetches...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Done < want[j].Done })
		sort.Sort(byDoneSeq(s.rec))
		if got := s.completions(); len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", iter, got, want)
		}
	}
}
