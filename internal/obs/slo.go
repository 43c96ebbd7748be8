package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// The SLO engine turns the wide-event stream into service-level
// indicators: rolling virtual-time windows of good/bad request
// outcomes per objective, cumulative error-budget accounting, and
// multi-window burn-rate alert rules in the Google SRE style (a page
// fires only when both a short and a long window burn budget faster
// than the threshold — the short window for responsiveness, the long
// one to suppress blips). Everything runs on the virtual clock, so
// the alert log is a pure function of the run and can be committed as
// evidence like every other table.

// Objective is one service-level objective: a target fraction of good
// requests, where "good" means served (and, when LatencySec > 0,
// served within the latency threshold).
type Objective struct {
	// Name identifies the objective in reports and alerts.
	Name string
	// Class restricts the objective to one request class ("standard",
	// "best-effort"); "" matches every class.
	Class string
	// Target is the objective's good fraction in (0, 1), e.g. 0.999.
	Target float64
	// LatencySec, when positive, makes this a latency SLI: a served
	// request is good only if its sojourn is at most LatencySec.
	// 0 makes it a pure availability SLI.
	LatencySec float64
}

// BurnRule is one multi-window burn-rate alert: it fires when the
// error budget burns at least Burn times faster than sustainable in
// BOTH the short and the long window, and resolves when either drops
// back below.
type BurnRule struct {
	// Name labels the rule ("page", "ticket").
	Name string
	// ShortSec and LongSec are the two window lengths in virtual
	// seconds; both are added to the engine's window set.
	ShortSec float64
	LongSec  float64
	// Burn is the rate multiplier: 1.0 means exactly exhausting the
	// budget over the SLO period, 14.4 the classic 5m/1h page.
	Burn float64
}

// Alert is one transition in the deterministic alert log.
type Alert struct {
	// AtSec is the virtual time of the transition.
	AtSec float64 `json:"at_sec"`
	// Objective and Rule name what fired or resolved.
	Objective string `json:"objective"`
	Rule      string `json:"rule"`
	// State is "fire" or "resolve".
	State string `json:"state"`
	// ShortBurn and LongBurn are the burn rates at transition time.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
}

// DefaultSLOWindows are the rolling window lengths when none are
// configured: 5 minutes, 1 hour, 6 hours of virtual time.
var DefaultSLOWindows = []float64{300, 3600, 21600}

// DefaultBurnRules are the classic two-rule ladder: a page at 14.4×
// over 5m/1h, a ticket at 6× over 1h/6h.
var DefaultBurnRules = []BurnRule{
	{Name: "page", ShortSec: 300, LongSec: 3600, Burn: 14.4},
	{Name: "ticket", ShortSec: 3600, LongSec: 21600, Burn: 6},
}

// SLOConfig configures an engine. Zero-value fields take the
// defaults above.
type SLOConfig struct {
	Objectives []Objective
	WindowsSec []float64
	Rules      []BurnRule
}

// sloSample is one outcome on the virtual timeline.
type sloSample struct {
	at  float64
	bad bool
}

// window is one rolling virtual-time window over a windowSet's sample
// log: the samples from head on with at > now-lenSec, counted.
type window struct {
	lenSec float64
	head   int
	total  int64
	bad    int64
}

// windowSet counts good/bad outcomes of one stream in several rolling
// virtual-time windows at once. Each sample is appended once to the
// shared log; every window keeps its own head cursor, total and bad
// count over it, and evicts from its head as the clock advances.
// Every window of a set advances to the same nondecreasing clock, so a
// window's head is the first sample with at > now-lenSec, and the
// longest window's head is the lowest. The log compacts at that head,
// dropping only samples no window holds, and clears the vacated tail
// so the backing array never pins evicted samples (the stale-tail
// retention class the admission queue once had).
type windowSet struct {
	samples []sloSample
	w       []window
	longest int // index of the longest window in w
}

func newWindowSet(lens []float64) *windowSet {
	ws := &windowSet{w: make([]window, len(lens))}
	for i, l := range lens {
		ws.w[i].lenSec = l
		if l > lens[ws.longest] {
			ws.longest = i
		}
	}
	return ws
}

func (ws *windowSet) add(at float64, bad bool) {
	ws.samples = append(ws.samples, sloSample{at: at, bad: bad})
	for i := range ws.w {
		ws.w[i].total++
		if bad {
			ws.w[i].bad++
		}
	}
}

// advance evicts, from every window, the samples that fell out of its
// (now-lenSec, now] range.
func (ws *windowSet) advance(now float64) {
	for i := range ws.w {
		w := &ws.w[i]
		cut := now - w.lenSec
		for w.head < len(ws.samples) && ws.samples[w.head].at <= cut {
			if ws.samples[w.head].bad {
				w.bad--
			}
			w.total--
			w.head++
		}
	}
	if h := ws.w[ws.longest].head; h > len(ws.samples)/2 && h > 16 {
		n := copy(ws.samples, ws.samples[h:])
		clear(ws.samples[n:len(ws.samples)])
		ws.samples = ws.samples[:n]
		for i := range ws.w {
			ws.w[i].head -= h
		}
	}
}

// sli is the window's good fraction; an empty window reports 1 (no
// evidence of badness is budget intact, never NaN).
func (w *window) sli() float64 {
	if w.total == 0 {
		return 1
	}
	return 1 - float64(w.bad)/float64(w.total)
}

// objState is one objective's rolling state.
type objState struct {
	obj      Objective
	set      *windowSet
	cumTotal int64
	cumBad   int64
	firing   []bool // parallel to the engine's rules
}

// SLOEngine evaluates objectives over the wide-event stream. It is
// safe for concurrent use; a nil engine no-ops on every method, so
// emission points need no enabled/disabled branches.
type SLOEngine struct {
	mu    sync.Mutex
	rules []BurnRule
	// ruleWin holds each rule's short and long window index in every
	// objective's window set, resolved once when the engine is built.
	ruleWin [][2]int
	objs    []*objState
	now     float64
	alerts  []Alert
}

// NewSLOEngine builds an engine from cfg, applying defaults for
// unset windows and rules and validating objectives (targets must be
// in (0,1)). Rule windows are added to the window set automatically.
func NewSLOEngine(cfg SLOConfig) (*SLOEngine, error) {
	windows := cfg.WindowsSec
	if len(windows) == 0 {
		windows = DefaultSLOWindows
	}
	rules := cfg.Rules
	if cfg.Rules == nil {
		rules = DefaultBurnRules
	}
	have := make(map[float64]bool, len(windows))
	ws := make([]float64, 0, len(windows)+2*len(rules))
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("obs: SLO window %g must be positive", w)
		}
		if !have[w] {
			have[w] = true
			ws = append(ws, w)
		}
	}
	for _, r := range rules {
		if r.ShortSec <= 0 || r.LongSec < r.ShortSec {
			return nil, fmt.Errorf("obs: burn rule %q windows %g/%g invalid", r.Name, r.ShortSec, r.LongSec)
		}
		if r.Burn <= 0 {
			return nil, fmt.Errorf("obs: burn rule %q burn %g must be positive", r.Name, r.Burn)
		}
		for _, w := range []float64{r.ShortSec, r.LongSec} {
			if !have[w] {
				have[w] = true
				ws = append(ws, w)
			}
		}
	}
	sort.Float64s(ws)
	e := &SLOEngine{rules: rules, ruleWin: make([][2]int, len(rules))}
	for ri, r := range rules {
		e.ruleWin[ri] = [2]int{slices.Index(ws, r.ShortSec), slices.Index(ws, r.LongSec)}
	}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			return nil, fmt.Errorf("obs: objective with empty name")
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("obs: objective %q target %g must be in (0,1)", o.Name, o.Target)
		}
		st := &objState{obj: o, set: newWindowSet(ws), firing: make([]bool, len(rules))}
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// burn is the window's budget burn rate relative to the objective's
// target: bad fraction over the sustainable bad fraction. An empty
// window burns nothing.
func burn(w *window, target float64) float64 {
	if w.total == 0 {
		return 0
	}
	return (float64(w.bad) / float64(w.total)) / (1 - target)
}

// ruleBurns are rule ri's short and long window burn rates for st.
func (e *SLOEngine) ruleBurns(st *objState, ri int) (short, long float64) {
	rw := e.ruleWin[ri]
	return burn(&st.set.w[rw[0]], st.obj.Target), burn(&st.set.w[rw[1]], st.obj.Target)
}

// ObserveEvent records one terminal wide event against every matching
// objective and advances the clock to the event time. Events must
// arrive in nondecreasing DoneSec order (the export paths sort).
func (e *SLOEngine) ObserveEvent(ev Event) {
	if e == nil {
		return
	}
	good := ev.Outcome == OutcomeServed
	e.Record(ev.Class, ev.DoneSec, good, ev.SojournSec())
}

// Record scores one outcome at virtual time at: good says whether the
// request was served, sojournSec its latency (ignored for pure
// availability objectives). Class filters objectives.
func (e *SLOEngine) Record(class string, at float64, good bool, sojournSec float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if at > e.now {
		e.now = at
	}
	for _, st := range e.objs {
		if st.obj.Class != "" && st.obj.Class != class {
			continue
		}
		bad := !good || (st.obj.LatencySec > 0 && sojournSec > st.obj.LatencySec)
		st.cumTotal++
		if bad {
			st.cumBad++
		}
		st.set.add(at, bad)
		st.set.advance(e.now)
	}
	e.evaluateLocked()
}

// Advance moves the virtual clock forward, evicting expired samples
// and re-evaluating alert rules (an alert can resolve purely through
// time passing).
func (e *SLOEngine) Advance(now float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if now <= e.now {
		return
	}
	e.now = now
	for _, st := range e.objs {
		st.set.advance(now)
	}
	e.evaluateLocked()
}

// evaluateLocked checks every (objective, rule) pair for a firing
// transition and appends it to the alert log.
func (e *SLOEngine) evaluateLocked() {
	for _, st := range e.objs {
		for ri, r := range e.rules {
			short, long := e.ruleBurns(st, ri)
			firing := short >= r.Burn && long >= r.Burn
			if firing == st.firing[ri] {
				continue
			}
			st.firing[ri] = firing
			state := "resolve"
			if firing {
				state = "fire"
			}
			e.alerts = append(e.alerts, Alert{
				AtSec: e.now, Objective: st.obj.Name, Rule: r.Name,
				State: state, ShortBurn: short, LongBurn: long,
			})
		}
	}
}

// Alerts returns the transition log in firing order.
func (e *SLOEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Alert(nil), e.alerts...)
}

// WindowStatus is one rolling window's live state.
type WindowStatus struct {
	WindowSec float64 `json:"window_sec"`
	Total     int64   `json:"total"`
	Bad       int64   `json:"bad"`
	SLI       float64 `json:"sli"`
	Burn      float64 `json:"burn"`
}

// RuleStatus is one burn rule's live state for an objective.
type RuleStatus struct {
	Rule      string  `json:"rule"`
	Threshold float64 `json:"threshold"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Firing    bool    `json:"firing"`
}

// ObjectiveStatus is one objective's full live state.
type ObjectiveStatus struct {
	Name       string  `json:"name"`
	Class      string  `json:"class,omitempty"`
	Target     float64 `json:"target"`
	LatencySec float64 `json:"latency_sec,omitempty"`
	// Cumulative error-budget accounting since the run began:
	// BudgetConsumed is the fraction of the total budget spent (>1
	// means overspent), BudgetRemaining its clamped complement.
	Total           int64          `json:"total"`
	Bad             int64          `json:"bad"`
	BudgetConsumed  float64        `json:"budget_consumed"`
	BudgetRemaining float64        `json:"budget_remaining"`
	Windows         []WindowStatus `json:"windows"`
	Rules           []RuleStatus   `json:"rules"`
}

// Status snapshots every objective in configuration order.
func (e *SLOEngine) Status() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, st := range e.objs {
		os := ObjectiveStatus{
			Name: st.obj.Name, Class: st.obj.Class,
			Target: st.obj.Target, LatencySec: st.obj.LatencySec,
			Total: st.cumTotal, Bad: st.cumBad,
		}
		if st.cumTotal > 0 {
			os.BudgetConsumed = (float64(st.cumBad) / float64(st.cumTotal)) / (1 - st.obj.Target)
		}
		os.BudgetRemaining = 1 - os.BudgetConsumed
		if os.BudgetRemaining < 0 {
			os.BudgetRemaining = 0
		}
		for i := range st.set.w {
			w := &st.set.w[i]
			os.Windows = append(os.Windows, WindowStatus{
				WindowSec: w.lenSec, Total: w.total, Bad: w.bad,
				SLI: w.sli(), Burn: burn(w, st.obj.Target),
			})
		}
		for ri, r := range e.rules {
			short, long := e.ruleBurns(st, ri)
			os.Rules = append(os.Rules, RuleStatus{
				Rule: r.Name, Threshold: r.Burn,
				ShortBurn: short, LongBurn: long,
				Firing: st.firing[ri],
			})
		}
		out = append(out, os)
	}
	return out
}

// Now returns the engine's virtual clock.
func (e *SLOEngine) Now() float64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// WriteReport renders the live state as a deterministic text table:
// one block per objective with its windows, budget, burn rules, then
// the alert transition log.
func (e *SLOEngine) WriteReport(w io.Writer) error {
	if e == nil {
		return nil
	}
	statuses := e.Status()
	alerts := e.Alerts()
	now := e.Now()
	if _, err := fmt.Fprintf(w, "# slo report at t=%.3fs\n", now); err != nil {
		return err
	}
	for _, os := range statuses {
		kind := "availability"
		if os.LatencySec > 0 {
			kind = fmt.Sprintf("latency<=%gs", os.LatencySec)
		}
		class := os.Class
		if class == "" {
			class = "*"
		}
		if _, err := fmt.Fprintf(w, "\nobjective %-24s class %-12s %s target %.4f%%\n",
			os.Name, class, kind, os.Target*100); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %10s %8s %8s %10s %8s\n", "window", "total", "bad", "sli", "burn"); err != nil {
			return err
		}
		for _, ws := range os.Windows {
			if _, err := fmt.Fprintf(w, "  %9gs %8d %8d %9.4f%% %8.2f\n",
				ws.WindowSec, ws.Total, ws.Bad, ws.SLI*100, ws.Burn); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  budget: %d/%d bad, consumed %.2f%%, remaining %.2f%%\n",
			os.Bad, os.Total, os.BudgetConsumed*100, os.BudgetRemaining*100); err != nil {
			return err
		}
		for _, rs := range os.Rules {
			state := "ok"
			if rs.Firing {
				state = "FIRING"
			}
			if _, err := fmt.Fprintf(w, "  rule %-8s burn %5.2f/%5.2f (threshold %.1f) %s\n",
				rs.Rule, rs.ShortBurn, rs.LongBurn, rs.Threshold, state); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "\n# alerts (%d transitions)\n", len(alerts)); err != nil {
		return err
	}
	for _, a := range alerts {
		if _, err := fmt.Fprintf(w, "t=%12.3fs %-7s %-24s %-8s short %5.2f long %5.2f\n",
			a.AtSec, a.State, a.Objective, a.Rule, a.ShortBurn, a.LongBurn); err != nil {
			return err
		}
	}
	return nil
}

// WriteHealthJSON renders the live state for /healthz: the virtual
// clock, every objective's status, and the alert log.
func (e *SLOEngine) WriteHealthJSON(w io.Writer) error {
	if e == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := struct {
		NowSec     float64           `json:"now_sec"`
		Objectives []ObjectiveStatus `json:"objectives"`
		Alerts     []Alert           `json:"alerts"`
	}{e.Now(), e.Status(), e.Alerts()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// HealthTracker derives per-entity health scores (shards, drives)
// from the same good/bad stream the SLO engine consumes: per key, the
// worst good-fraction across its rolling windows. Scores live in
// [0,1]; an unseen or empty key scores 1 (healthy until proven
// otherwise). A nil tracker no-ops.
type HealthTracker struct {
	mu      sync.Mutex
	windows []float64
	now     float64
	keys    map[string]*windowSet
}

// NewHealthTracker builds a tracker over the given window lengths
// (DefaultSLOWindows' first two when empty).
func NewHealthTracker(windowsSec ...float64) *HealthTracker {
	if len(windowsSec) == 0 {
		windowsSec = []float64{DefaultSLOWindows[0], DefaultSLOWindows[1]}
	}
	return &HealthTracker{windows: windowsSec, keys: make(map[string]*windowSet)}
}

// HealthKey is one key of a tracker, resolved once (HealthTracker.Key)
// so a caller scoring many outcomes under it skips the string lookup
// per observation. The zero HealthKey, a nil tracker's, no-ops.
type HealthKey struct {
	h   *HealthTracker
	set *windowSet
}

// Key resolves key to its windows, creating them on first use: from
// then on the key is tracked (Keys lists it) and scores 1 until
// observed.
func (h *HealthTracker) Key(key string) HealthKey {
	if h == nil {
		return HealthKey{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HealthKey{h, h.setLocked(key)}
}

func (h *HealthTracker) setLocked(key string) *windowSet {
	ws := h.keys[key]
	if ws == nil {
		ws = newWindowSet(h.windows)
		h.keys[key] = ws
	}
	return ws
}

// Observe scores one outcome for key at virtual time at, creating the
// key's windows on first use.
func (h *HealthTracker) Observe(key string, at float64, good bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(h.setLocked(key), at, good)
}

// Observe scores one outcome for the key at virtual time at, exactly
// as HealthTracker.Observe under its name does.
func (k HealthKey) Observe(at float64, good bool) {
	if k.h == nil {
		return
	}
	k.h.mu.Lock()
	defer k.h.mu.Unlock()
	k.h.observeLocked(k.set, at, good)
}

func (h *HealthTracker) observeLocked(ws *windowSet, at float64, good bool) {
	if at > h.now {
		h.now = at
	}
	ws.add(at, !good)
	ws.advance(h.now)
}

// Advance moves the tracker's clock forward, expiring old samples.
func (h *HealthTracker) Advance(now float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if now <= h.now {
		return
	}
	h.now = now
	for _, ws := range h.keys {
		ws.advance(now)
	}
}

// Score returns the key's health: the minimum good-fraction across
// its windows as of the tracker's clock, 1 for an unseen key.
func (h *HealthTracker) Score(key string) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := h.keys[key]
	if ws == nil {
		return 1
	}
	ws.advance(h.now)
	score := 1.0
	for i := range ws.w {
		if s := ws.w[i].sli(); s < score {
			score = s
		}
	}
	return score
}

// Keys returns the tracked keys, sorted.
func (h *HealthTracker) Keys() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.keys))
	for k := range h.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Scores snapshots every key's score, sorted by key.
func (h *HealthTracker) Scores() map[string]float64 {
	if h == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, k := range h.Keys() {
		out[k] = h.Score(k)
	}
	return out
}
