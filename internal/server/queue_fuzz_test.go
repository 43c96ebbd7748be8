package server

import "testing"

// FuzzAdmissionQueue drives the queue with an arbitrary op sequence
// and checks its invariants against a naive slice model: FIFO order,
// the capacity bound, and the high-water depth. Each byte of the input
// is one op: even values offer, odd values pop (value/2 + 1 items).
func FuzzAdmissionQueue(f *testing.F) {
	f.Add(uint8(4), []byte{0, 2, 4, 1, 0, 0, 0, 3, 255})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0, 1})
	f.Add(uint8(0), []byte{0, 1})
	f.Add(uint8(16), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 31})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		q := NewAdmissionQueue(int(capacity))
		wantCap := int(capacity)
		if wantCap < 1 {
			wantCap = 1
		}
		if q.capacity != wantCap {
			t.Fatalf("cap=%d, want %d", q.capacity, wantCap)
		}
		var (
			model    []int
			next     int
			maxDepth int
		)
		for _, op := range ops {
			if op%2 == 0 { // offer
				ok := q.Offer(Request{ID: next})
				wantOK := len(model) < wantCap
				if ok != wantOK {
					t.Fatalf("offer(%d) = %v with depth %d/%d", next, ok, len(model), wantCap)
				}
				if ok {
					model = append(model, next)
					if len(model) > maxDepth {
						maxDepth = len(model)
					}
				}
				next++
			} else { // pop
				n := int(op)/2 + 1
				got := q.PopNAppend(nil, n)
				want := n
				if want > len(model) {
					want = len(model)
				}
				if len(got) != want {
					t.Fatalf("PopNAppend(nil, %d) returned %d items, want %d", n, len(got), want)
				}
				for i, r := range got {
					if r.ID != model[i] {
						t.Fatalf("pop order: got ID %d at %d, want %d", r.ID, i, model[i])
					}
				}
				model = model[want:]
			}
			if q.Len() != len(model) {
				t.Fatalf("Len=%d, model %d", q.Len(), len(model))
			}
		}
		if q.MaxDepth() != maxDepth {
			t.Fatalf("maxDepth=%d, want %d", q.MaxDepth(), maxDepth)
		}
	})
}
