package obs

import "testing"

// TestRingPreallocation pins what NewEventRing and NewTracer allocate
// up front: every slot of their bound, at least one.
func TestRingPreallocation(t *testing.T) {
	for _, c := range []struct{ bound, want int }{{-3, 1}, {0, 1}, {1, 1}, {7, 7}} {
		if got := cap(NewEventRing(c.bound).r.buf); got != c.want {
			t.Errorf("NewEventRing(%d) preallocated %d slots, want %d", c.bound, got, c.want)
		}
		if got := cap(NewTracer(c.bound).r.buf); got != c.want {
			t.Errorf("NewTracer(%d) preallocated %d slots, want %d", c.bound, got, c.want)
		}
	}
}
