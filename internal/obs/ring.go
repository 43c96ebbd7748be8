package obs

// ring is the bounded store behind EventRing and Tracer: it retains
// the most recent limit values in add order, filling its backing up to
// limit and overwriting the oldest slot past it. It does no locking;
// each owner guards it with its own mutex.
type ring[T any] struct {
	buf     []T
	limit   int
	next    int // oldest slot once the buffer is full
	total   int64
	dropped int64
}

// newRing returns a ring retaining limit values (minimum 1), with all
// of its slots allocated up front.
func newRing[T any](limit int) ring[T] {
	limit = max(limit, 1)
	return ring[T]{buf: make([]T, 0, limit), limit: limit}
}

// add stores v, evicting the oldest value when full.
func (r *ring[T]) add(v T) { *r.slot() = v }

// slot claims the next value's slot, evicting the oldest value when
// full, and returns it for the caller to overwrite: it holds the
// evicted value, or the zero value.
func (r *ring[T]) slot() *T {
	r.total++
	if n := len(r.buf); n < r.limit {
		r.buf = r.buf[:n+1]
		return &r.buf[n]
	}
	r.dropped++
	v := &r.buf[r.next]
	r.next = (r.next + 1) % len(r.buf)
	return v
}

// snapshot returns a copy of the retained values, oldest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// visit calls fn on every retained value in place, oldest first.
func (r *ring[T]) visit(fn func(*T)) {
	for i := range r.buf {
		fn(&r.buf[(r.next+i)%len(r.buf)])
	}
}

// reset empties the ring and its counters, clearing the whole backing
// array so evicted values' strings and slices are not pinned.
func (r *ring[T]) reset() {
	clear(r.buf[:cap(r.buf)])
	*r = ring[T]{buf: r.buf[:0], limit: r.limit}
}
