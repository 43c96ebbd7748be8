package server

// AdmissionQueue is the server's bounded FIFO admission queue.
// Arrivals that find the queue full are rejected permanently — an
// online tape service sheds load at admission rather than queueing
// without bound, because a request queued behind hours of tape motion
// is worse than an immediate "try later". The queue tracks its
// high-water depth for the metrics dump.
//
// The queue is not safe for concurrent use: the server is a
// single-goroutine event loop per drive, like the drive itself.
type AdmissionQueue struct {
	capacity int
	reqs     []Request
	head     int
	maxDepth int
}

// NewAdmissionQueue returns a queue admitting at most capacity
// requests at a time; capacity < 1 selects 1.
func NewAdmissionQueue(capacity int) *AdmissionQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &AdmissionQueue{capacity: capacity}
}

// Len returns the number of queued requests.
func (q *AdmissionQueue) Len() int { return len(q.reqs) - q.head }

// Offer admits one request, or rejects it when the queue is full.
func (q *AdmissionQueue) Offer(r Request) bool {
	if q.Len() >= q.capacity {
		return false
	}
	q.reqs = append(q.reqs, r)
	if d := q.Len(); d > q.maxDepth {
		q.maxDepth = d
	}
	return true
}

// compact shifts the live tail down once the dead prefix dominates,
// keeping Offer amortized O(1) without unbounded growth. The vacated
// tail is zeroed: popped requests must not be retained by the backing
// array, where their payloads would stay pinned until the next
// compaction or growth overwrote them.
func (q *AdmissionQueue) compact() {
	if q.head <= len(q.reqs)/2 {
		return
	}
	n := copy(q.reqs, q.reqs[q.head:])
	clear(q.reqs[n:])
	q.reqs = q.reqs[:n]
	q.head = 0
}

// PopNAppend removes up to n requests (n <= 0 drains the queue) in
// arrival order and appends them to dst, returning the extended slice.
// Event loops that drain the queue on every tick pass a reused
// buffer, so the steady-state drain is allocation-free.
func (q *AdmissionQueue) PopNAppend(dst []Request, n int) []Request {
	depth := q.Len()
	if n <= 0 || n > depth {
		n = depth
	}
	if n == 0 {
		return dst
	}
	dst = append(dst, q.reqs[q.head:q.head+n]...)
	q.head += n
	q.compact()
	return dst
}

// MaxDepth returns the high-water queue depth.
func (q *AdmissionQueue) MaxDepth() int { return q.maxDepth }
