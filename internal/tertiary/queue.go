package tertiary

// batchQueue holds the admitted-but-undispatched requests grouped by
// cartridge, each group in arrival order; admission pushes straight
// onto it. The groups are dense, one per cartridge of the library in
// cartridge-index order (pending.cart), so the dispatch loop's pick
// walks a slice instead of iterating a map. Groups consume from the
// head with index compaction, so taking a batch costs O(batch), not
// O(remaining).
// The seed implementation rebuilt the whole remaining queue on every
// mount decision, which is quadratic under sustained load; see
// BenchmarkBatchQueue for the comparison.
type batchQueue struct {
	perTape []tapeQueue
	serials []int64 // cartridge serial per index, for pickFor's tie-break
	total   int
}

// tapeQueue is one cartridge's pending requests in arrival order.
type tapeQueue struct {
	reqs []pending
	head int
}

// newBatchQueue returns an empty queue over the cartridges with the
// given serials, indexed by position.
func newBatchQueue(serials []int64) *batchQueue {
	return &batchQueue{perTape: make([]tapeQueue, len(serials)), serials: serials}
}

// push appends one admitted request to its cartridge's group.
// Requests must be pushed in arrival order.
func (q *batchQueue) push(p pending) {
	tq := &q.perTape[p.cart]
	tq.reqs = append(tq.reqs, p)
	q.total++
}

// len returns the number of queued requests across all cartridges.
func (q *batchQueue) len() int { return q.total }

func (tq *tapeQueue) len() int { return len(tq.reqs) - tq.head }

// oldest returns the arrival time of the longest-waiting request in a
// non-empty group.
func (tq *tapeQueue) oldest() float64 { return tq.reqs[tq.head].req.Arrival }

// take appends up to limit requests for the cartridge to dst in
// arrival order (limit <= 0 drains the group) and removes them from
// the queue. The dispatch loop passes a run-lifetime scratch slice, so
// cutting a batch allocates nothing once the scratch has grown. A
// drained group keeps its backing array for the cartridge's next
// requests; otherwise the dead prefix is compacted once it dominates
// the array, keeping push amortized O(1) without unbounded growth.
func (q *batchQueue) take(dst []pending, cart, limit int) []pending {
	tq := &q.perTape[cart]
	n := tq.len()
	if limit > 0 && limit < n {
		n = limit
	}
	dst = append(dst, tq.reqs[tq.head:tq.head+n]...)
	tq.head += n
	q.total -= n
	if tq.len() == 0 {
		tq.reqs, tq.head = tq.reqs[:0], 0
	} else if tq.head > len(tq.reqs)/2 {
		tq.reqs = append(tq.reqs[:0], tq.reqs[tq.head:]...)
		tq.head = 0
	}
	return dst
}

// pickFor chooses the next cartridge for drive self to mount: among
// the cartridges with queued work and not loaded in another drive (or
// riding the robot's gripper), the one with the most pending requests,
// ties broken by the oldest waiting request and then by the smaller
// serial. That bounds starvation while keeping batches dense, and the
// rule depends on no iteration order, so the choice is the same
// whatever order the cartridges are indexed in. loadedBy is the run's
// standing cartridge-location index (cartridge index -> drive holding
// it, onShelf when none), so picking builds no exclusion set. "No
// candidate" is reported with the boolean, never a sentinel index.
func (q *batchQueue) pickFor(loadedBy []int, self int) (int, bool) {
	best := -1
	var bn int
	var bo float64
	for i := range q.perTape {
		tq := &q.perTape[i]
		n := tq.len()
		if n == 0 {
			continue
		}
		if owner := loadedBy[i]; owner != onShelf && owner != self {
			continue
		}
		o := tq.oldest()
		if best < 0 || n > bn || n == bn && (o < bo || o == bo && q.serials[i] < q.serials[best]) {
			best, bn, bo = i, n, o
		}
	}
	return best, best >= 0
}
