package hsm

// Cache is the bounded-bytes staging store: the resident object
// extents, indexed by slot, with one eviction policy deciding who pays
// when capacity runs out. A slot is a small dense integer the caller
// assigns each object once (the tier uses the object's position in its
// catalog's layout order), so the per-request residency probe and hit
// are a slice index, not a string-keyed lookup. It is pure bookkeeping
// — no clocks, no I/O — so the tier above can price hits and evictions
// however its transfer model says. Like the rest of the serving layer
// it belongs to one goroutine.
type Cache struct {
	capacity int64
	resident int64
	entries  []*Entry // by slot; nil when not resident
	n        int      // resident entries
	policy   Policy
	seq      int64

	evictions    int
	bytesEvicted int64
}

// NewCache returns an empty cache of the given byte capacity;
// capacity must be positive (a size-0 cache is "no cache" — the tier
// never constructs one).
func NewCache(capacityBytes int64, policy Policy) *Cache {
	return &Cache{capacity: capacityBytes, policy: policy}
}

// Resident returns the bytes currently cached.
func (c *Cache) Resident() int64 { return c.resident }

// Len returns the resident entry count.
func (c *Cache) Len() int { return c.n }

// Fits reports whether free capacity already holds bytes — the
// admission test InstallIfRoom applies, exposed so a caller can skip
// pricing an entry that would not be admitted anyway.
func (c *Cache) Fits(bytes int64) bool { return c.resident+bytes <= c.capacity }

// entry returns the slot's resident entry, nil when absent.
func (c *Cache) entry(slot int) *Entry {
	if slot < 0 || slot >= len(c.entries) {
		return nil
	}
	return c.entries[slot]
}

// Contains reports residency without touching recency state — the
// routing tier's probe.
func (c *Cache) Contains(slot int) bool { return c.entry(slot) != nil }

// Touch records a hit: returns whether the entry is resident, and if
// so refreshes the policy's recency state.
func (c *Cache) Touch(slot int) bool {
	e := c.entry(slot)
	if e == nil {
		return false
	}
	c.policy.Touch(e)
	return true
}

// Install admits the object, evicting per policy until it fits. An
// already-resident object is touched instead (the install refreshes
// it). Objects larger than the whole cache are not admitted. Returns
// whether a new entry was installed.
func (c *Cache) Install(slot int, id string, bytes int64, cost float64) bool {
	if c.Touch(slot) {
		return false
	}
	if bytes > c.capacity {
		return false
	}
	for !c.Fits(bytes) {
		c.evictOne()
	}
	c.add(slot, id, bytes, cost)
	return true
}

// InstallIfRoom admits the object only when free capacity already
// holds it — the prefetch path: opportunistic installs never evict
// demand-resident data. Returns whether a new entry was installed.
func (c *Cache) InstallIfRoom(slot int, id string, bytes int64, cost float64) bool {
	if c.Contains(slot) || !c.Fits(bytes) {
		return false
	}
	c.add(slot, id, bytes, cost)
	return true
}

func (c *Cache) add(slot int, id string, bytes int64, cost float64) {
	if slot >= len(c.entries) {
		c.entries = append(c.entries, make([]*Entry, slot+1-len(c.entries))...)
	}
	c.seq++
	e := &Entry{ID: id, Bytes: bytes, Cost: cost, Seq: c.seq, slot: slot}
	c.entries[slot] = e
	c.n++
	c.resident += bytes
	c.policy.Install(e)
}

// evictOne removes the policy's victim.
func (c *Cache) evictOne() {
	e := c.policy.Victim()
	c.policy.Remove(e)
	c.entries[e.slot] = nil
	c.n--
	c.resident -= e.Bytes
	c.evictions++
	c.bytesEvicted += e.Bytes
}

// Evictions and BytesEvicted report the cache's lifetime eviction
// accounting.
func (c *Cache) Evictions() int      { return c.evictions }
func (c *Cache) BytesEvicted() int64 { return c.bytesEvicted }
