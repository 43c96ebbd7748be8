// Package tertiary assembles the pieces into the system the paper's
// title promises: an online tertiary storage component that serves
// random object reads from a library of serpentine tapes. It supplies
// the context the scheduling algorithms run in — a volume catalog
// mapping objects to (cartridge, segment extent), a bounded admission
// queue, a batcher that groups pending requests by cartridge, a robot
// arm that exchanges cartridges into a pool of emulated drives one at
// a time, and the paper's recommended scheduling policy (OPT for tiny
// batches, LOSS for medium, whole-tape READ for dense ones) applied
// to each mounted batch through the recovering executor, so fault
// retries, replans and scheduler degradation compose with mounting.
//
// The simulation is event-driven over virtual time: per-drive state
// machines advance over a shared event heap, nothing sleeps, and a
// multi-hour workload evaluates in milliseconds.
package tertiary

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"serpentine/internal/core"
	"serpentine/internal/fault"
	"serpentine/internal/geometry"
	"serpentine/internal/locate"
	"serpentine/internal/obs"
)

// Object is one catalog entry: a named extent on one cartridge.
type Object struct {
	// ID names the object.
	ID string
	// Tape is the cartridge serial holding the object.
	Tape int64
	// Start is the first segment of the extent.
	Start int
	// Segments is the extent length; 0 means 1.
	Segments int
}

// Len is the extent length in segments: Segments, with 0 meaning 1.
func (o Object) Len() int {
	if o.Segments <= 0 {
		return 1
	}
	return o.Segments
}

// Catalog maps object IDs to extents, and lists them in layout order
// (Tape, Start, ID): an object's position there is its slot. A
// request's ID is looked up once, where it enters (Library.Slot, or a
// fleet's directory); after that the slot carries it: a staging tier
// keys its cache by it, and a runner reads the object at it
// (Runner.OfferRouted). The list is sorted once, when a library is
// built over the catalog (New), and kept sorted by every Put after
// that.
type Catalog struct {
	slots  map[string]int // ID -> position in layout
	layout []Object
	sorted bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{slots: make(map[string]int)}
}

// Put registers or replaces an object.
func (c *Catalog) Put(o Object) error {
	if o.ID == "" {
		return errors.New("tertiary: object with empty ID")
	}
	if k, ok := c.slots[o.ID]; ok {
		c.layout[k] = o
	} else {
		c.slots[o.ID] = len(c.layout)
		c.layout = append(c.layout, o)
	}
	if c.sorted {
		c.sort()
	}
	return nil
}

// sort puts the list in layout order. A catalog put front to back,
// cartridge by cartridge, is in order already and keeps its slots.
func (c *Catalog) sort() {
	if !slices.IsSortedFunc(c.layout, layoutOrder) {
		slices.SortFunc(c.layout, layoutOrder)
		for i, o := range c.layout {
			c.slots[o.ID] = i
		}
	}
	c.sorted = true
}

// layoutOrder is physical layout order, (Tape, Start, ID): the order a
// staging tier prefetches along.
func layoutOrder(a, b Object) int {
	if a.Tape != b.Tape {
		return cmp.Compare(a.Tape, b.Tape)
	}
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	return strings.Compare(a.ID, b.ID)
}

// Get looks an object up.
func (c *Catalog) Get(id string) (Object, bool) {
	i, ok := c.slots[id]
	if !ok {
		return Object{}, false
	}
	return c.layout[i], true
}

// Len returns the number of cataloged objects.
func (c *Catalog) Len() int { return len(c.layout) }

// All returns every cataloged object in layout order, sorting the list
// on the first call (see Catalog). The slice is the catalog's own:
// read-only, and valid until the next Put.
func (c *Catalog) All() []Object {
	if !c.sorted {
		c.sort()
	}
	return c.layout
}

// Request is one read of a cataloged object.
type Request struct {
	// ObjectID names the object to read.
	ObjectID string
	// Arrival is the request's arrival time in virtual seconds.
	Arrival float64
	// Deadline is the absolute virtual time after which serving the
	// request is pointless; a request still queued past it is shed at
	// batch-cut time rather than dispatched. 0 means no deadline (the
	// default; see Config.DeadlineSec for a stream-wide budget).
	Deadline float64
	// BestEffort marks work the library may shed first under degraded
	// capacity: while any drive is down the brownout admission state
	// sheds best-effort arrivals, and while every drive is down it
	// sheds everything (see Config.Lifecycle).
	BestEffort bool
}

// Class names the request's service class for wide events and SLO
// objectives: "best-effort" or "standard".
func (r Request) Class() string {
	if r.BestEffort {
		return "best-effort"
	}
	return "standard"
}

// Completion reports one served request.
type Completion struct {
	Request
	// Object is the resolved catalog entry.
	Object Object
	// Done is the virtual time the transfer finished.
	Done float64
	// DriveID identifies the drive that served it.
	DriveID int
	// Attribution decomposes the request's sojourn into phases; the
	// components sum back to Latency() (see AttributionError).
	Attribution Attribution
}

// Latency is the request's response time.
func (c Completion) Latency() float64 { return c.Done - c.Arrival }

// Metrics summarizes a library run.
type Metrics struct {
	// Served is the number of completed requests.
	Served int
	// Failed is the number of requests abandoned permanently by the
	// executor (media errors, retry exhaustion past the replan
	// budget); 0 on a fault-free run.
	Failed int
	// Rejected is the number of requests shed at admission because
	// the library's pending backlog was at QueueCap.
	Rejected int
	// Shed is the number of requests dropped deliberately: refused by
	// the brownout admission breaker while drives were down, or
	// expired past their deadline while still queued. Served + Failed
	// + Rejected + Shed partitions the offered stream.
	Shed int
	// Rescued counts requests stranded by a drive dying mid-batch and
	// returned to the backlog (a request rescued twice counts twice);
	// every rescued request is eventually served, shed or failed and
	// is counted there too.
	Rescued int
	// ReplicaReads counts requests served from a non-primary replica
	// after their primary cartridge was lost or its extent hit a
	// permanent media defect.
	ReplicaReads int
	// LostCartridges counts cartridges the robot permanently lost
	// (failed fetches); DriveFailures counts drive outages that
	// affected operation.
	LostCartridges int
	DriveFailures  int
	// Makespan is the virtual time the last drive went idle.
	Makespan float64
	// MeanLatency and MaxLatency summarize response times.
	MeanLatency float64
	MaxLatency  float64
	// Mounts counts cartridge exchanges into a drive; Unmounts the
	// exchanges out. A cartridge that stays mounted across
	// consecutive batches counts one mount, however many batches it
	// serves.
	Mounts   int
	Unmounts int
	// Batches is the number of schedules executed.
	Batches int
	// RobotMoves counts robot arm trips (one per mount and one per
	// unmount); RobotBusySec is the arm's total exchange time and
	// RobotWaitSec the time drives spent queued for the busy arm.
	RobotMoves   int
	RobotBusySec float64
	RobotWaitSec float64
	// Retries, Replans, Recalibrations and Fallbacks total the
	// executor's recovery work across every batch; RecoverySec is the
	// virtual time it consumed.
	Retries        int
	Replans        int
	Recalibrations int
	Fallbacks      int
	RecoverySec    float64
	// MaxQueueDepth is the pending backlog's high-water mark.
	MaxQueueDepth int
	// BytesRead is the total data transferred.
	BytesRead int64
	// DriveBusySec is the summed busy time across drives (service
	// plus exchange overhead).
	DriveBusySec float64
	// HeadPasses estimates total media wear in full-length passes.
	HeadPasses float64
}

// IOsPerHour is the delivered random-retrieval rate.
func (m Metrics) IOsPerHour() float64 {
	if m.Makespan == 0 {
		return 0
	}
	return float64(m.Served) / m.Makespan * 3600
}

// Config describes a library.
type Config struct {
	// Profile is the drive/cartridge format; zero value selects the
	// DLT4000.
	Profile geometry.Params
	// Tapes are the cartridge serials in the library.
	Tapes []int64
	// Drives is the transport count; 0 selects 1.
	Drives int
	// MountSec and UnmountSec are the robot exchange times around a
	// cartridge swap (load+thread, and rewind is charged separately
	// by the drive); defaults 30 s and 15 s, typical for mid-90s
	// libraries. The robot arm performs one exchange at a time:
	// concurrent swaps queue for it.
	MountSec   float64
	UnmountSec float64
	// BatchLimit caps how many pending requests are served per
	// mount; 0 means no cap.
	BatchLimit int
	// Scheduler orders each batch; nil selects the paper's Auto
	// policy.
	Scheduler core.Scheduler
	// QueueCap bounds the library's pending backlog (admitted but
	// not yet dispatched); arrivals beyond it are rejected. 0 means
	// unbounded.
	QueueCap int
	// Faults arms every mounted drive with an injector when any rate
	// is non-zero; each mount derives its own injector seed from
	// Faults.Seed, the cartridge serial, the drive and the mount
	// ordinal.
	Faults fault.Config
	// Lifecycle arms component lifecycle faults when any rate is
	// non-zero: drives fail and repair on seeded MTTF/MTTR processes
	// (unfinished batch requests are unloaded and rescued onto
	// surviving drives), the robot arm stalls, cartridges are
	// permanently lost by failed fetches, and cartridges carry
	// permanent bad-spot regions. The zero value changes nothing: a
	// run with all rates zero is bit-identical to one without the
	// field.
	Lifecycle fault.LifecycleConfig
	// Placement maps objects to extra replicas on distinct
	// cartridges; with it, a lost cartridge or permanent media defect
	// degrades the read to a surviving replica (an extra mount)
	// instead of failing the request. nil means no replicas.
	Placement *Placement
	// DeadlineSec, when positive, gives every request without an
	// explicit Deadline a budget of Arrival + DeadlineSec; a request
	// still queued past its deadline is shed at batch-cut time. 0
	// disables the default — only explicit per-request deadlines are
	// enforced. The recommended budget is sim.DefaultRequestTimeoutSec,
	// the same constant bounding the executor's per-request drive time.
	DeadlineSec float64
	// Reg receives the run's metrics; nil records none (a nil
	// registry hands out no-op handles, and the run skips the drive
	// trace hook's metric half).
	Reg *obs.Registry
	// Labels are added to every metric series the run emits; the
	// sweep passes the cell coordinates here.
	Labels []obs.Label
	// SpanTrace, when non-nil, records the run as hierarchical
	// virtual-time spans in this trace: the run, per-drive batches on
	// their own lanes, robot waits and exchanges, the executor's
	// recovery phases, every drive primitive as a leaf, and one span
	// per request carrying its latency attribution. A Tracer's
	// StartTrace() is nil (off) on a nil Tracer; the fleet passes its
	// own trace so shard runs nest under the fleet span. Tracing
	// changes no simulated timing bit. SpanParent, when non-nil, is
	// the run span's parent and must outlive the run.
	SpanTrace  *obs.TraceHandle
	SpanParent *obs.SpanHandle
	// Lane offsets every span lane the run assigns: the run span lands
	// on Lane, drive i on Lane+1+i. The fleet gives each shard a
	// disjoint lane block so parallel shards render as parallel row
	// groups; 0 (the default) keeps the historical lane numbering.
	Lane int
	// Events, when non-nil, receives one wide event per request
	// reaching a terminal state (served, failed, rejected, shed) —
	// the canonical per-request record carrying identity, placement,
	// outcome and the full latency attribution vector. Like spans,
	// emission is pure accounting: it changes no simulated timing
	// bit, and a nil ring costs nothing.
	Events *obs.EventRing
	// Shard stamps every emitted wide event with the library's fleet
	// shard; 0 outside a fleet.
	Shard int
}

// withDefaults resolves the zero-value fields.
func (cfg Config) withDefaults() Config {
	if cfg.Profile.Tracks == 0 {
		cfg.Profile = geometry.DLT4000()
	}
	if cfg.Drives == 0 {
		cfg.Drives = 1
	}
	if cfg.MountSec == 0 {
		cfg.MountSec = 30
	}
	if cfg.UnmountSec == 0 {
		cfg.UnmountSec = 15
	}
	return cfg
}

// validate rejects resolved knobs no run can honour: negative counts
// and caps, non-finite or negative times, and invalid fault configs.
func (cfg Config) validate() error {
	if cfg.Drives < 0 || cfg.BatchLimit < 0 || cfg.QueueCap < 0 {
		return fmt.Errorf("tertiary: negative drive count, batch limit or queue cap (%d, %d, %d)", cfg.Drives, cfg.BatchLimit, cfg.QueueCap)
	}
	if cfg.MountSec < 0 || cfg.UnmountSec < 0 ||
		math.IsNaN(cfg.MountSec) || math.IsNaN(cfg.UnmountSec) ||
		math.IsInf(cfg.MountSec, 0) || math.IsInf(cfg.UnmountSec, 0) {
		return fmt.Errorf("tertiary: exchange times %g/%g s", cfg.MountSec, cfg.UnmountSec)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return fmt.Errorf("tertiary: faults: %w", err)
	}
	if err := cfg.Lifecycle.Validate(); err != nil {
		return fmt.Errorf("tertiary: lifecycle: %w", err)
	}
	if cfg.DeadlineSec < 0 || math.IsNaN(cfg.DeadlineSec) || math.IsInf(cfg.DeadlineSec, 0) {
		return fmt.Errorf("tertiary: deadline budget of %g seconds", cfg.DeadlineSec)
	}
	return nil
}

// Library is an online tertiary store: a robot, a drive pool, tapes,
// and a catalog.
//
// The cartridges are held densely, in the order New's Config.Tapes
// lists them: a cartridge's position there is its index into tapes and
// models, and into every per-cartridge table a run keeps. index maps a
// serial to that position; runs consult it only where a serial enters
// (request resolution, replica redirects, the routing probes).
type Library struct {
	cfg     Config
	catalog *Catalog
	serials []int64
	index   map[int64]int
	tapes   []*geometry.Tape
	models  []*locate.Model
	sched   core.Scheduler
}

// New builds the library, generating (standing in for "loading") every
// cartridge and characterizing it: each tape's locate model is built
// from its own key points, as the paper's Figure 9 shows it must be.
func New(cfg Config, catalog *Catalog) (*Library, error) {
	cfg = cfg.withDefaults()
	tapes := make([]*geometry.Tape, len(cfg.Tapes))
	models := make([]*locate.Model, len(cfg.Tapes))
	for i, serial := range cfg.Tapes {
		var err error
		if tapes[i], models[i], err = loadCartridge(cfg.Profile, serial); err != nil {
			return nil, err
		}
	}
	return newLibrary(cfg, catalog, tapes, models)
}

// loadCartridge generates one cartridge and its locate model.
func loadCartridge(profile geometry.Params, serial int64) (*geometry.Tape, *locate.Model, error) {
	tape, err := geometry.Generate(profile, serial)
	if err != nil {
		return nil, nil, err
	}
	model, err := locate.FromKeyPoints(tape.KeyPoints())
	if err != nil {
		return nil, nil, err
	}
	return tape, model, nil
}

// newLibrary builds the library over already loaded cartridges, one
// per serial in cfg.Tapes, and validates the catalog and the placement
// against them. cfg must have its defaults resolved.
func newLibrary(cfg Config, catalog *Catalog, tapes []*geometry.Tape, models []*locate.Model) (*Library, error) {
	if len(cfg.Tapes) == 0 {
		return nil, errors.New("tertiary: library needs at least one tape")
	}
	if catalog == nil || catalog.Len() == 0 {
		return nil, errors.New("tertiary: library needs a non-empty catalog")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = core.NewAuto()
	}
	l := &Library{
		cfg:     cfg,
		catalog: catalog,
		serials: append([]int64(nil), cfg.Tapes...),
		index:   make(map[int64]int, len(cfg.Tapes)),
		tapes:   tapes,
		models:  models,
		sched:   sched,
	}
	for i, serial := range cfg.Tapes {
		if _, dup := l.index[serial]; dup {
			return nil, fmt.Errorf("tertiary: duplicate tape serial %d", serial)
		}
		l.index[serial] = i
	}
	// Validate the catalog against the tapes.
	for _, o := range catalog.All() {
		tape, ok := l.tape(o.Tape)
		if !ok {
			return nil, fmt.Errorf("tertiary: object %s on unknown tape %d", o.ID, o.Tape)
		}
		if o.Start < 0 || o.Start+o.Len() > tape.Segments() {
			return nil, fmt.Errorf("tertiary: object %s extent [%d,%d) outside tape %d",
				o.ID, o.Start, o.Start+o.Len(), o.Tape)
		}
	}
	if err := cfg.Placement.validate(l); err != nil {
		return nil, err
	}
	return l, nil
}

// Config returns a copy of the library's resolved configuration (zero
// values replaced by defaults). The staging tier reads it to inherit
// the library's registry, labels and span wiring, and to re-Clone the
// library with the cache span as the run span's parent.
func (l *Library) Config() Config { return l.cfg }

// Objects returns the catalog's entries in layout order (see
// Catalog.All): the catalog's own slice, which callers must not
// modify.
func (l *Library) Objects() []Object { return l.catalog.All() }

// Slot returns the object's slot, its index in Objects(), and -1 for
// an uncataloged ID.
func (l *Library) Slot(id string) int {
	if i, ok := l.catalog.slots[id]; ok {
		return i
	}
	return -1
}

// RefetchSec is the modeled cost of fetching the object from tape
// again: a locate from the load point to the extent plus the extent's
// streaming transfer, priced on the tape's own locate model. It is the
// cost-aware eviction policy's currency: evicting an object that is
// cheap to re-fetch risks little, evicting one far down the tape
// risks a long locate. The mount exchange is deliberately excluded —
// it amortizes over whatever batch the re-fetch would join. Objects
// on unknown tapes cost 0.
func (l *Library) RefetchSec(o Object) float64 {
	ci, ok := l.index[o.Tape]
	if !ok {
		return 0
	}
	model := l.models[ci]
	cost := model.LocateTime(0, o.Start)
	for k := 0; k < o.Len(); k++ {
		cost += model.ReadTime(o.Start + k)
	}
	return cost
}

// Cartridge returns the serial's cartridge index, its position in
// Config.Tapes, and -1 for a serial outside the library. The runner's
// cartridge probes (Runner.Mounted, Runner.CartridgeLost) take it, so
// a router that resolves its copies once reads them without a lookup.
func (l *Library) Cartridge(serial int64) int {
	if ci, ok := l.index[serial]; ok {
		return ci
	}
	return -1
}

// Tapes returns the cartridge serials in the library.
func (l *Library) Tapes() []int64 {
	out := append([]int64(nil), l.serials...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tape looks a cartridge up by serial.
func (l *Library) tape(serial int64) (*geometry.Tape, bool) {
	ci, ok := l.index[serial]
	if !ok {
		return nil, false
	}
	return l.tapes[ci], true
}

// pending is one unserved request resolved against the catalog.
// replica is the copy currently targeted: 0 is the catalog primary,
// k > 0 the k-th placement replica (ext is kept in sync). rescueSec
// accumulates virtual time lost to aborted serve attempts — batches
// cut short by a drive death, reads redirected to a replica after a
// media failure — attributed separately from queueing when the
// request finally completes.
//
// A run copies pendings on every offer, queue push, batch take and
// cache hit, so the entry is kept narrow and holds one pointer, the
// request's ID: the copy's extent stands in for its Object, whose ID
// is the request's (Library.object checks it, Placement.Put sets it).
type pending struct {
	req Request
	ext extent
	// cart is ext.tape's index in the library's cartridge list.
	cart      int32
	replica   int32
	rescueSec float64
	// ref is the request's index in the run's arrivals: what its
	// terminal record entry names it by. slot is its catalog object's
	// slot (Library.Slot).
	ref  int32
	slot int32
	// route is the routing tier's decision for the request, carried
	// through to the wide event; RouteNone outside a fleet.
	route Route
}

// extent is where one copy of an object lies: an Object without its
// ID. Catalog and placement validation bound every extent by its
// tape's segment count, so start and segs fit 32 bits.
type extent struct {
	tape  int64
	start int32
	segs  int32 // Object.Segments: 0 means 1
}

func extentOf(o Object) extent {
	return extent{tape: o.Tape, start: int32(o.Start), segs: int32(o.Segments)}
}

// object is the copy as the Object of the request for id.
func (e extent) object(id string) Object {
	return Object{ID: id, Tape: e.tape, Start: int(e.start), Segments: int(e.segs)}
}

// length is the extent length in segments (Object.Len).
func (e extent) length() int { return max(int(e.segs), 1) }

// Route is the routing tier's decision for a request, the one-byte
// form of the wide event's Route string.
type Route uint8

// The routes a fleet stamps; RouteNone is a request outside a fleet.
const (
	RouteNone Route = iota
	RouteRouted
	RouteAffinity
	RouteCrossShard
	RouteUnroutable
)

var routeNames = [...]string{"", "routed", "affinity", "cross-shard", "unroutable"}

// String is the route's wide-event name, "" for RouteNone.
func (r Route) String() string { return routeNames[r] }
