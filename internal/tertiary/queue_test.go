package tertiary

import (
	"testing"
)

// testQueue returns an empty queue over cartridges with the given
// serials (cartridge index = position) and a loadedBy index with every
// cartridge on the shelf.
func testQueue(serials ...int64) (*batchQueue, []int) {
	loadedBy := make([]int, len(serials))
	for i := range loadedBy {
		loadedBy[i] = onShelf
	}
	return newBatchQueue(serials), loadedBy
}

func qpending(q *batchQueue, cart, start int, arrival float64) pending {
	return pending{
		req:  Request{ObjectID: "x", Arrival: arrival},
		ext:  extent{tape: q.serials[cart], start: int32(start)},
		cart: int32(cart),
	}
}

func TestBatchQueueTakePreservesArrivalOrder(t *testing.T) {
	q, loadedBy := testQueue(100, 101)
	// Interleave two tapes; within a tape, pushes are arrival order.
	for i := 0; i < 6; i++ {
		q.push(qpending(q, i%2, i*10, float64(i)))
	}
	if q.len() != 6 {
		t.Fatalf("len %d, want 6", q.len())
	}
	got := q.take(nil, 0, 2)
	if len(got) != 2 || got[0].ext.start != 0 || got[1].ext.start != 20 {
		t.Fatalf("take(tape 100, 2) = %+v", got)
	}
	if q.len() != 4 {
		t.Fatalf("len %d after take, want 4", q.len())
	}
	// limit 0 drains the rest of the tape, appending after what dst
	// already holds.
	rest := q.take(got[:1], 0, 0)
	if len(rest) != 2 || rest[0].ext.start != 0 || rest[1].ext.start != 40 {
		t.Fatalf("take(tape 100, 0) = %+v", rest)
	}
	// A drained tape stays in the dense queue as an empty group: it
	// yields nothing more and is never picked again, even though it
	// holds the older work's serial and is on the shelf.
	if n := q.perTape[0].len(); n != 0 {
		t.Fatalf("drained tape still holds %d requests", n)
	}
	if more := q.take(nil, 0, 0); len(more) != 0 {
		t.Fatalf("take on a drained tape returned %+v", more)
	}
	if cart, ok := q.pickFor(loadedBy, 0); !ok || cart != 1 {
		t.Fatalf("pickFor after draining tape 100 = %d, %v; want tape index 1", cart, ok)
	}
	if q.len() != 3 {
		t.Fatalf("len %d after drain, want 3", q.len())
	}
}

func TestBatchQueuePickSerialZero(t *testing.T) {
	q, loadedBy := testQueue(0, 7)
	// Serial 0 has the most pending work: it must win the pick even
	// though 0 doubled as the seed's "no candidate" sentinel.
	q.push(qpending(q, 0, 0, 0))
	q.push(qpending(q, 0, 10, 1))
	q.push(qpending(q, 1, 0, 0))
	cart, ok := q.pickFor(loadedBy, 0)
	if !ok || q.serials[cart] != 0 {
		t.Fatalf("pickFor = %d, %v; want serial 0", cart, ok)
	}
	// A cartridge loaded in the asking drive stays a candidate.
	loadedBy[0] = 0
	if cart, ok := q.pickFor(loadedBy, 0); !ok || q.serials[cart] != 0 {
		t.Fatalf("pickFor with serial 0 in the asking drive = %d, %v; want serial 0", cart, ok)
	}
	// Loaded in another drive, it is excluded and 7 is next.
	loadedBy[0] = 1
	cart, ok = q.pickFor(loadedBy, 0)
	if !ok || q.serials[cart] != 7 {
		t.Fatalf("pickFor excluding serial 0 = %d, %v; want serial 7", cart, ok)
	}
	// Everything excluded (7 in the robot's gripper): no candidate,
	// reported explicitly rather than through a sentinel value.
	loadedBy[1] = robotHeld
	if cart, ok := q.pickFor(loadedBy, 0); ok {
		t.Fatalf("pickFor found tape index %d with all tapes excluded", cart)
	}
}

func TestBatchQueuePickTieBreaks(t *testing.T) {
	// Serials out of index order: the tie-break compares serials, not
	// positions.
	q, loadedBy := testQueue(5, 3, 9)
	q.push(qpending(q, 0, 0, 2))
	q.push(qpending(q, 1, 0, 2))
	// Equal counts and equal oldest arrival: lowest serial wins.
	if cart, _ := q.pickFor(loadedBy, 0); q.serials[cart] != 3 {
		t.Fatalf("equal-count equal-age pick = serial %d, want 3", q.serials[cart])
	}
	// Older work wins over serial order.
	q.push(qpending(q, 2, 0, 1))
	if cart, _ := q.pickFor(loadedBy, 0); q.serials[cart] != 9 {
		t.Fatalf("oldest-work pick = serial %d, want 9", q.serials[cart])
	}
	// More work wins over age.
	q.push(qpending(q, 0, 10, 3))
	if cart, _ := q.pickFor(loadedBy, 0); q.serials[cart] != 5 {
		t.Fatalf("most-work pick = serial %d, want 5", q.serials[cart])
	}
}

func TestBatchQueueCompaction(t *testing.T) {
	q, _ := testQueue(1)
	for i := 0; i < 100; i++ {
		q.push(qpending(q, 0, i, float64(i)))
	}
	// Consume past the halfway mark in small bites; the backing slice
	// must compact instead of retaining every served entry.
	for i := 0; i < 6; i++ {
		q.take(nil, 0, 10)
	}
	tq := &q.perTape[0]
	if tq.head != 0 {
		t.Fatalf("head %d after compaction threshold, want 0", tq.head)
	}
	if len(tq.reqs) != 40 {
		t.Fatalf("backing slice holds %d entries, want the 40 live ones", len(tq.reqs))
	}
	if got := q.take(nil, 0, 0); len(got) != 40 || got[0].ext.start != 60 {
		t.Fatalf("post-compaction drain = %d entries starting %d", len(got), got[0].ext.start)
	}
}

// The seed's splitBatch rebuilt the whole queue on every batch —
// O(queue) per take, O(n²) per run. The benchmark pair documents the
// win from head-index compaction.
func benchPendings(q *batchQueue, n int) []pending {
	ps := make([]pending, n)
	for i := range ps {
		ps[i] = qpending(q, i%len(q.serials), i, float64(i))
	}
	return ps
}

var benchSerials = []int64{100, 101, 102, 103, 104, 105, 106, 107}

func BenchmarkBatchQueueTake(b *testing.B) {
	q0, loadedBy := testQueue(benchSerials...)
	src := benchPendings(q0, 4096)
	var batch []pending
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := newBatchQueue(benchSerials)
		for _, p := range src {
			q.push(p)
		}
		for q.len() > 0 {
			cart, ok := q.pickFor(loadedBy, 0)
			if !ok {
				b.Fatal("pickFor failed with work pending")
			}
			if batch = q.take(batch[:0], cart, 16); len(batch) == 0 {
				b.Fatal("empty take")
			}
		}
	}
}

func BenchmarkBatchQueueSeedSplit(b *testing.B) {
	q0, _ := testQueue(benchSerials...)
	var src []refPending
	for _, p := range benchPendings(q0, 4096) {
		src = append(src, refPending{req: p.req, obj: p.ext.object(p.req.ObjectID)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queue := append([]refPending(nil), src...)
		for len(queue) > 0 {
			serial := refPickTape(queue)
			batch, rest := refSplitBatch(queue, len(queue), serial, 16)
			if len(batch) == 0 {
				b.Fatal("empty batch")
			}
			queue = rest
		}
	}
}
