package hsm

import "fmt"

// Entry is one cached object as the eviction policies see it. The
// cache owns the entry; policies read the fields, and the built-in
// ones keep their bookkeeping on the entry itself (intrusive list links
// and a reference bit), so no policy operation looks anything up.
type Entry struct {
	// ID names the cached object (the catalog object ID).
	ID string
	// Bytes is the entry's resident size.
	Bytes int64
	// Cost is the modeled re-fetch cost in virtual seconds — the
	// locate model's locate+transfer price for reading the object off
	// tape again (tertiary.Library.RefetchSec). The cost-aware policy
	// evicts the cheapest-to-refetch entry first, and a dirty entry's
	// writeback is charged it. A tier whose cache reads neither (LRU or
	// clock without write-back) records 0 instead of pricing it.
	Cost float64
	// Seq is the entry's install sequence number, the deterministic
	// tie-break every policy falls back to.
	Seq int64
	// Dirty marks write-back data not yet flushed to tape; evicting a
	// dirty entry costs a writeback.
	Dirty bool

	slot       int    // the cache slot holding the entry
	prev, next *Entry // the built-in policy's list links
	ref        bool   // clock's reference bit
}

// linkAfter inserts e into a circular list right after at.
func linkAfter(e, at *Entry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// unlink removes e from its circular list.
func unlink(e *Entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// entryList is a circular list of entries around a sentinel: root.next
// is the front, root.prev the back.
type entryList struct{ root Entry }

func (l *entryList) init() { l.root.next, l.root.prev = &l.root, &l.root }

// Policy decides which resident entry an over-capacity cache evicts
// next. Implementations are stateful (they track recency or scan
// position), belong to one cache, and must be fully deterministic: a
// victim is a pure function of the install/touch/remove history, never
// of map iteration order or wall time.
type Policy interface {
	// Name labels the policy in tables and metric labels.
	Name() string
	// Install records a newly admitted entry.
	Install(e *Entry)
	// Touch records a hit on a resident entry.
	Touch(e *Entry)
	// Victim returns the entry to evict next. The cache guarantees at
	// least one entry is resident.
	Victim() *Entry
	// Remove records that the entry left the cache.
	Remove(e *Entry)
}

// NewPolicy resolves a policy name: "lru" (and "", the default),
// "clock", or "cost".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return newLRU(), nil
	case "clock":
		return newClock(), nil
	case "cost":
		return newCostAware(), nil
	}
	return nil, fmt.Errorf("hsm: unknown eviction policy %q", name)
}

// lru evicts the least recently used entry: a doubly-linked recency
// list with the most recent entry at the front.
type lru struct{ order entryList }

func newLRU() *lru {
	p := &lru{}
	p.order.init()
	return p
}

func (p *lru) Name() string { return "lru" }

func (p *lru) Install(e *Entry) { linkAfter(e, &p.order.root) }

func (p *lru) Touch(e *Entry) {
	unlink(e)
	linkAfter(e, &p.order.root)
}

func (p *lru) Victim() *Entry { return p.order.root.prev }

func (p *lru) Remove(e *Entry) { unlink(e) }

// clock is the classic second-chance ring: entries sit on a circle, a
// hand sweeps it clearing reference bits, and the first entry found
// with its bit already clear is the victim. A touched entry survives
// one extra sweep — the "second chance".
type clock struct {
	hand *Entry
}

func newClock() *clock { return &clock{} }

func (p *clock) Name() string { return "clock" }

// Install places the entry immediately behind the hand — the last
// frame the current sweep will examine — with its bit clear.
func (p *clock) Install(e *Entry) {
	if p.hand == nil {
		e.next, e.prev = e, e
		p.hand = e
		return
	}
	linkAfter(e, p.hand.prev)
}

func (p *clock) Touch(e *Entry) { e.ref = true }

func (p *clock) Victim() *Entry {
	for p.hand.ref {
		p.hand.ref = false
		p.hand = p.hand.next
	}
	return p.hand
}

func (p *clock) Remove(e *Entry) {
	if e.next == e {
		p.hand = nil
		e.next, e.prev = nil, nil
		return
	}
	if p.hand == e {
		p.hand = e.next
	}
	unlink(e)
}

// costAware evicts the entry that is cheapest to fetch back from tape
// (smallest Entry.Cost, install order breaking exact ties): the cache
// keeps the objects whose loss would cost the most re-fetch seconds.
// Victim selection is a linear scan over an install-ordered list —
// caches hold at most a few thousand extents, and determinism beats
// heap bookkeeping here.
type costAware struct{ order entryList }

func newCostAware() *costAware {
	p := &costAware{}
	p.order.init()
	return p
}

func (p *costAware) Name() string { return "cost" }

func (p *costAware) Install(e *Entry) { linkAfter(e, p.order.root.prev) }

func (p *costAware) Touch(*Entry) {}

func (p *costAware) Victim() *Entry {
	var best *Entry
	for e := p.order.root.next; e != &p.order.root; e = e.next {
		if best == nil || e.Cost < best.Cost || (e.Cost == best.Cost && e.Seq < best.Seq) {
			best = e
		}
	}
	return best
}

func (p *costAware) Remove(e *Entry) { unlink(e) }
