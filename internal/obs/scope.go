package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Scopes bring per-task attribution to the process-wide registry. A Scope
// bundles its own Registry, a correlation ID, and span/event counters, and
// rides a context.Context (WithScope/FromContext) so the instrumented
// packages can attribute emission to "the experiment this solve belongs
// to" without new parameters. Emission through a scope dual-writes: the
// value lands in the scope's registry, every ancestor's registry, and the
// default registry, so per-scope counters always sum to (never replace)
// the process totals that /metrics, -metrics-out and the existing golden
// tests observe. A nil *Scope is valid everywhere and routes straight to
// the default registry, which is what FromContext returns on an unscoped
// context — the ctx-aware package helpers (AddCtx, IncCtx, ...) therefore
// feed only the process totals until someone installs a scope. Scope
// methods and the ctx helpers over them are obs's only metric emission
// path; there are no package-level Inc/Observe twins.
//
// Like the rest of the package, scope emission is gated on the one global
// enabled flag: a disabled process pays a single atomic load per call no
// matter how many scopes are live.

// maxRetainedScopes bounds the closed-scope table kept for dump sections.
// A sweep closes one scope per experiment, so the cap is generous; past
// it, closed scopes are counted in scopesDropped rather than retained.
const maxRetainedScopes = 1024

// Scope is one live unit of attributed work (an experiment, a request).
type Scope struct {
	id     string
	name   string
	path   string // "/"-joined ancestry, e.g. "sweep/fig7"
	parent *Scope
	reg    *Registry
	start  time.Time

	openSpans atomic.Int64
	events    atomic.Int64
	closed    atomic.Bool
}

var scopeTab struct {
	mu       sync.Mutex
	seq      uint64
	live     map[string]*Scope
	retained []ScopeSection
	dropped  int64
}

// NewScope opens a root scope and registers it in the live-scope table
// (served by /tasks). Close it when the unit of work ends.
func NewScope(name string) *Scope {
	return newScope(name, nil)
}

// Child opens a sub-scope whose emission also rolls up into s. On a nil
// receiver it opens a root scope, so callers can stay nil-oblivious.
func (s *Scope) Child(name string) *Scope {
	return newScope(name, s)
}

func newScope(name string, parent *Scope) *Scope {
	sc := &Scope{name: name, path: name, parent: parent, reg: NewRegistry(), start: Now()}
	if parent != nil {
		sc.path = parent.path + "/" + name
	}
	scopeTab.mu.Lock()
	scopeTab.seq++
	sc.id = fmt.Sprintf("s%06x", scopeTab.seq)
	if scopeTab.live == nil {
		scopeTab.live = map[string]*Scope{}
	}
	scopeTab.live[sc.id] = sc
	scopeTab.mu.Unlock()
	return sc
}

// Close removes the scope from the live table and retains its final
// section for the metrics dump. Idempotent; safe on nil.
func (s *Scope) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	sec := s.section()
	scopeTab.mu.Lock()
	delete(scopeTab.live, s.id)
	if len(scopeTab.retained) < maxRetainedScopes {
		scopeTab.retained = append(scopeTab.retained, sec)
	} else {
		scopeTab.dropped++
	}
	scopeTab.mu.Unlock()
}

// ResetScopes drops every live and retained scope and rewinds the ID
// sequence (tests, mainly — live correlation IDs stay unique per process).
func ResetScopes() {
	scopeTab.mu.Lock()
	scopeTab.seq = 0
	scopeTab.live = map[string]*Scope{}
	scopeTab.retained = nil
	scopeTab.dropped = 0
	scopeTab.mu.Unlock()
}

// ID returns the scope's correlation ID ("" on nil).
func (s *Scope) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Name returns the scope's leaf name ("" on nil).
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Path returns the "/"-joined ancestry path ("" on nil).
func (s *Scope) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Registry returns the scope's own registry (the default registry on nil),
// for reading attributed values back: scope.Counter et al delegate here.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return defaultR
	}
	return s.reg
}

// Counter reads one attributed counter (the default registry's on nil).
func (s *Scope) Counter(name string) int64 { return s.Registry().Counter(name) }

// Elapsed is the time since the scope opened (0 on nil).
func (s *Scope) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return Since(s.start)
}

// Digest returns a stable hex digest of the scope's attributed metrics —
// the per-experiment fingerprint the sweep manifest records. JSON
// marshalling sorts map keys, so equal snapshots digest equally.
func (s *Scope) Digest() string {
	b, err := json.Marshal(s.Registry().Snapshot())
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// scope emission: dual-write the scope chain plus the default registry,
// all behind a single enabled load.

// emit applies f to every registry s writes through: its own, each
// ancestor's, then the default registry (only the last on a nil scope).
func (s *Scope) emit(f func(*Registry)) {
	if !enabled.Load() {
		return
	}
	for c := s; c != nil; c = c.parent {
		f(c.reg)
	}
	f(defaultR)
}

// Add increments an attributed counter (and the process total).
func (s *Scope) Add(name string, delta int64) {
	s.emit(func(r *Registry) { r.Add(name, delta) })
}

// Inc increments an attributed counter by one.
func (s *Scope) Inc(name string) { s.Add(name, 1) }

// SetGauge records an attributed gauge (latest-value semantics everywhere).
func (s *Scope) SetGauge(name string, v float64) {
	s.emit(func(r *Registry) { r.SetGauge(name, v) })
}

// Observe folds a duration into an attributed timer.
func (s *Scope) Observe(name string, d time.Duration) {
	s.emit(func(r *Registry) { r.Observe(name, d) })
}

// ObserveHist folds a value into an attributed histogram.
func (s *Scope) ObserveHist(name string, v int64) {
	s.emit(func(r *Registry) { r.ObserveHist(name, v) })
}

// TimeHist starts a stopwatch whose stop function feeds an attributed
// histogram in nanoseconds.
func (s *Scope) TimeHist(name string) func() {
	if !enabled.Load() {
		return func() {}
	}
	start := Now()
	return func() { s.ObserveHist(name, Since(start).Nanoseconds()) }
}

// scopeKey carries a *Scope in a context.Context.
type scopeKey struct{}

// WithScope returns a context carrying s; solves derived from it attribute
// their telemetry to s through the ctx-aware helpers.
func WithScope(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, s)
}

// FromContext returns the scope carried by ctx, or nil — and nil is a
// first-class scope that routes to the default registry, so callers never
// need to branch.
func FromContext(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// ctx-aware package helpers: resolve the scope from ctx first, fall back
// to the default registry (nil scope). Each is one line of sugar over the
// matching Scope method.

// AddCtx increments a counter attributed to ctx's scope.
func AddCtx(ctx context.Context, name string, delta int64) { FromContext(ctx).Add(name, delta) }

// IncCtx increments a counter attributed to ctx's scope by one.
func IncCtx(ctx context.Context, name string) { FromContext(ctx).Add(name, 1) }

// SetGaugeCtx records a gauge attributed to ctx's scope.
func SetGaugeCtx(ctx context.Context, name string, v float64) { FromContext(ctx).SetGauge(name, v) }

// ObserveCtx folds a duration into a timer attributed to ctx's scope.
func ObserveCtx(ctx context.Context, name string, d time.Duration) {
	FromContext(ctx).Observe(name, d)
}

// ObserveHistCtx folds a value into a histogram attributed to ctx's scope.
func ObserveHistCtx(ctx context.Context, name string, v int64) {
	FromContext(ctx).ObserveHist(name, v)
}

// TimeHistCtx starts a stopwatch feeding a histogram attributed to ctx's
// scope.
func TimeHistCtx(ctx context.Context, name string) func() { return FromContext(ctx).TimeHist(name) }

// ScopeSection is one scope's contribution to the metrics dump: identity,
// lineage, wall time, and the attributed snapshot.
type ScopeSection struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Path     string   `json:"path"`
	ParentID string   `json:"parent_id,omitempty"`
	WallNS   int64    `json:"wall_ns"`
	Events   int64    `json:"events,omitempty"`
	Metrics  Snapshot `json:"metrics"`
}

func (s *Scope) section() ScopeSection {
	sec := ScopeSection{
		ID:      s.id,
		Name:    s.name,
		Path:    s.path,
		WallNS:  Since(s.start).Nanoseconds(),
		Events:  s.events.Load(),
		Metrics: s.reg.Snapshot(),
	}
	if s.parent != nil {
		sec.ParentID = s.parent.id
	}
	return sec
}

// ScopeSections returns the per-scope sections for the metrics dump:
// every closed (retained) scope in close order, then the still-live ones,
// all sorted by correlation ID so output is deterministic.
func ScopeSections() []ScopeSection {
	scopeTab.mu.Lock()
	secs := append([]ScopeSection(nil), scopeTab.retained...)
	live := make([]*Scope, 0, len(scopeTab.live))
	for _, s := range scopeTab.live {
		live = append(live, s)
	}
	scopeTab.mu.Unlock()
	for _, s := range live {
		secs = append(secs, s.section())
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i].ID < secs[j].ID })
	return secs
}

// TaskCounter is one top-counter entry in a TaskInfo, ordered (unlike a
// map) so /tasks output is stable.
type TaskCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// TaskInfo is one live scope as served by /tasks.
type TaskInfo struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Path        string        `json:"path"`
	ParentID    string        `json:"parent_id,omitempty"`
	ElapsedNS   int64         `json:"elapsed_ns"`
	OpenSpans   int64         `json:"open_spans"`
	Events      int64         `json:"events"`
	TopCounters []TaskCounter `json:"top_counters"`
}

// taskTopCounters bounds how many counters a /tasks row carries.
const taskTopCounters = 5

// Tasks snapshots the live scopes for /tasks, sorted by correlation ID.
func Tasks() []TaskInfo {
	scopeTab.mu.Lock()
	live := make([]*Scope, 0, len(scopeTab.live))
	for _, s := range scopeTab.live {
		live = append(live, s)
	}
	scopeTab.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	tasks := make([]TaskInfo, 0, len(live))
	for _, s := range live {
		ti := TaskInfo{
			ID:          s.id,
			Name:        s.name,
			Path:        s.path,
			ElapsedNS:   Since(s.start).Nanoseconds(),
			OpenSpans:   s.openSpans.Load(),
			Events:      s.events.Load(),
			TopCounters: []TaskCounter{},
		}
		if s.parent != nil {
			ti.ParentID = s.parent.id
		}
		snap := s.reg.Snapshot()
		top := make([]TaskCounter, 0, len(snap.Counters))
		for k, v := range snap.Counters {
			top = append(top, TaskCounter{Name: k, Value: v})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].Value != top[j].Value {
				return top[i].Value > top[j].Value
			}
			return top[i].Name < top[j].Name
		})
		if len(top) > taskTopCounters {
			top = top[:taskTopCounters]
		}
		ti.TopCounters = top
		tasks = append(tasks, ti)
	}
	return tasks
}
