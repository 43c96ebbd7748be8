package tertiary

import (
	"errors"
	"fmt"
	"slices"
)

// Placement maps objects to additional replica extents on distinct
// cartridges. The catalog entry stays the primary (replica 0); the
// placement lists replicas 1..n in failover order. When a cartridge is
// lost by the robot or a read hits a permanent media defect, the run
// degrades the request to a remote-replica read — an extra mount on a
// surviving cartridge — instead of failing it. k-of-n placement is
// expressed directly: register n-1 extra replicas and any k surviving
// cartridges can serve the object.
//
// A Placement is immutable once the library is built and is shared
// read-only across runs, like the catalog.
type Placement struct {
	extra map[string][]Object
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{extra: make(map[string][]Object)}
}

// Put appends replica extents for the object, in failover order; each
// replica takes the object's ID. The replicas are validated against
// the catalog and the library's tapes when the library is built: every
// replica must live on a tape distinct from the primary's and from the
// object's other replicas.
func (p *Placement) Put(id string, replicas ...Object) error {
	if id == "" {
		return errors.New("tertiary: placement for empty object ID")
	}
	if len(replicas) == 0 {
		return fmt.Errorf("tertiary: placement for %s without replicas", id)
	}
	for i := range replicas {
		replicas[i].ID = id
	}
	p.extra[id] = append(p.extra[id], replicas...)
	return nil
}

// Get returns the object's extra replicas in failover order, nil when
// it has none. The returned slice is the placement's own storage; do
// not mutate it.
func (p *Placement) Get(id string) []Object {
	if p == nil {
		return nil
	}
	return p.extra[id]
}

// firstReplicas returns a placement keeping each object's first n
// replicas, sharing p's extents; nil when n is 0.
func (p *Placement) firstReplicas(n int) *Placement {
	if p == nil || n == 0 {
		return nil
	}
	q := NewPlacement()
	for id, reps := range p.extra {
		q.extra[id] = slices.Clip(reps[:min(n, len(reps))])
	}
	return q
}

// validate checks every replica against the library's tapes and the
// catalog: known object, known tape, in-range extent, and cartridge
// diversity (the whole point of a replica is surviving the loss of a
// cartridge, so two copies on one tape are a configuration error).
func (p *Placement) validate(l *Library) error {
	if p == nil {
		return nil
	}
	for id, reps := range p.extra {
		primary, ok := l.catalog.Get(id)
		if !ok {
			return fmt.Errorf("tertiary: placement for uncataloged object %s", id)
		}
		seen := map[int64]bool{primary.Tape: true}
		for i, r := range reps {
			tape, ok := l.tape(r.Tape)
			if !ok {
				return fmt.Errorf("tertiary: replica %d of %s on unknown tape %d", i+1, id, r.Tape)
			}
			if r.Start < 0 || r.Start+r.Len() > tape.Segments() {
				return fmt.Errorf("tertiary: replica %d of %s extent [%d,%d) outside tape %d",
					i+1, id, r.Start, r.Start+r.Len(), r.Tape)
			}
			if r.Len() != primary.Len() {
				return fmt.Errorf("tertiary: replica %d of %s is %d segments, primary is %d",
					i+1, id, r.Len(), primary.Len())
			}
			if seen[r.Tape] {
				return fmt.Errorf("tertiary: replica %d of %s shares tape %d with another copy", i+1, id, r.Tape)
			}
			seen[r.Tape] = true
		}
	}
	return nil
}
