// Package obs is the module's stdlib-only observability layer: a race-safe
// metrics registry (counters, gauges, duration timers, log-bucketed
// histograms — histogram.go), a structured span/event API for phase-level
// telemetry (span.go), a trace collector that exports completed spans as
// Chrome trace-event JSON for Perfetto (tracefile.go), an optional HTTP
// debug server with pprof, Prometheus-text /metrics and a /progress
// open-span snapshot (httpdebug.go), and runtime/pprof capture helpers
// (profile.go). The solver packages report iterations-to-convergence,
// mat-vec counts, search-state expansions, per-phase wall times and
// latency distributions through it; the binaries expose it behind
// -v / -metrics-out / -trace-out / -debug-addr / -cpuprofile /
// -memprofile flags (cli.go).
//
// Metrics have one emission path: the *Scope methods (scope.go), with the
// ctx helpers (IncCtx, ObserveHistCtx, ...) as one-line sugar over
// FromContext(ctx). A nil *Scope routes to the default registry, so code
// with no task to attribute to, such as process-level fault counters,
// holds a nil scope rather than reaching for a second API.
//
// Everything is off by default. Every emission call starts with a single
// atomic load, so instrumented hot paths cost nothing measurable when no
// flag enabled the layer; the heavier call sites additionally batch their
// counts locally and report once per solve.
package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/persist"
)

var (
	enabled  atomic.Bool
	defaultR = NewRegistry()
)

// persist reports its commit/abort/journal events through a hook so it
// can stay dependency-free; point the hook at the nil scope so persist.*
// counters land in the default registry alongside everything else
// (no-ops while disabled).
func init() {
	persist.Count = (*Scope)(nil).Inc
}

// Enable turns the default registry on or off. Disabled is the zero state.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return enabled.Load() }

// Default returns the process-wide registry every emission path feeds.
func Default() *Registry { return defaultR }

// Reset clears every metric in the default registry (tests, mainly).
func Reset() { defaultR.Reset() }

// Registry holds named counters, gauges, timers and histograms. All
// methods are safe for concurrent use; after the first touch of a name an
// update takes only the shared read lock plus a few atomic operations. A
// timer is a histogram of nanosecond durations, kept in its own name space
// and exported as a TimerStat.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*int64
	gauges   map[string]*uint64 // float64 bits
	timers   map[string]*hist
	hists    map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Reset()
	return r
}

// Reset drops every metric.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*int64)
	r.gauges = make(map[string]*uint64)
	r.timers = make(map[string]*hist)
	r.hists = make(map[string]*hist)
}

// find returns the metric named name in *m, or nil if it was never
// touched. m points at one of r's map fields, which Reset replaces, so
// the field itself is read under the lock.
func find[T any](r *Registry, m *map[string]*T, name string) *T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return (*m)[name]
}

// lookup is find that creates the metric with mk on first touch; only
// creation takes the exclusive lock.
func lookup[T any](r *Registry, m *map[string]*T, name string, mk func() *T) *T {
	if v := find(r, m, name); v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := (*m)[name]
	if v == nil {
		v = mk()
		(*m)[name] = v
	}
	return v
}

// zero is lookup's constructor for counters and gauges.
func zero[T any]() *T { return new(T) }

// Add increments counter name by delta (creating it at zero first).
func (r *Registry) Add(name string, delta int64) {
	atomic.AddInt64(lookup(r, &r.counters, name, zero[int64]), delta)
}

// Inc increments counter name by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of counter name (0 if never touched).
func (r *Registry) Counter(name string) int64 {
	if c := find(r, &r.counters, name); c != nil {
		return atomic.LoadInt64(c)
	}
	return 0
}

// SetGauge records the latest value of gauge name. Non-finite values are
// dropped (the JSON emitter could not represent them anyway).
func (r *Registry) SetGauge(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	atomic.StoreUint64(lookup(r, &r.gauges, name, zero[uint64]), math.Float64bits(v))
}

// Gauge returns the current value of gauge name (0 if never set).
func (r *Registry) Gauge(name string) float64 {
	if g := find(r, &r.gauges, name); g != nil {
		return math.Float64frombits(atomic.LoadUint64(g))
	}
	return 0
}

// Observe folds one duration into timer name (count/total/min/max).
func (r *Registry) Observe(name string, d time.Duration) {
	lookup(r, &r.timers, name, newHist).observe(d.Nanoseconds())
}

// TimerStat is the exported state of one timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	AvgNS   int64 `json:"avg_ns"`
}

// timerStat projects a histogram onto the timer export. Loading count
// first means min and max already cover every counted observation (see
// hist.observe), so a racing writer can skew the total but never leave a
// counted timer with its MaxInt64/MinInt64 seeds.
func (h *hist) timerStat() TimerStat {
	st := TimerStat{Count: h.count.Load()}
	if st.Count == 0 {
		return st
	}
	st.TotalNS = h.sum.Load()
	st.MinNS = h.min.Load()
	st.MaxNS = h.max.Load()
	st.AvgNS = st.TotalNS / st.Count
	return st
}

// Snapshot is a point-in-time copy of a registry, ready for serialization.
type Snapshot struct {
	Counters map[string]int64     `json:"counters"`
	Gauges   map[string]float64   `json:"gauges"`
	Timers   map[string]TimerStat `json:"timers"`
	Hists    map[string]HistStat  `json:"hists"`
}

// Snapshot copies the registry's current state. Timers and histograms that
// exist but were never observed are omitted: their zero values (min=0 or
// min=MaxInt64) would read as garbage in the export.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Timers:   map[string]TimerStat{},
		Hists:    map[string]HistStat{},
	}
	r.mu.RLock()
	counters := maps.Clone(r.counters)
	gauges := maps.Clone(r.gauges)
	timers := maps.Clone(r.timers)
	hists := maps.Clone(r.hists)
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = atomic.LoadInt64(v)
	}
	for k, v := range gauges {
		s.Gauges[k] = math.Float64frombits(atomic.LoadUint64(v))
	}
	for k, h := range timers {
		if st := h.timerStat(); st.Count > 0 {
			s.Timers[k] = st
		}
	}
	for k, h := range hists {
		if st := h.stat(); st.Count > 0 {
			s.Hists[k] = st
		}
	}
	return s
}

// WriteJSON emits the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Dump is the full -metrics-out payload: the process-wide snapshot with
// the per-scope sections inlined under "scopes". The Snapshot fields stay
// at the top level (embedded), so consumers of the pre-scope format —
// obsreport's auto-detection, older diff baselines — parse a Dump as a
// plain Snapshot and simply ignore the sections.
type Dump struct {
	Snapshot
	Scopes []ScopeSection `json:"scopes,omitempty"`
}

// WriteJSON emits the default registry plus the per-scope sections as
// indented JSON.
func WriteJSON(w io.Writer) error {
	d := Dump{Snapshot: defaultR.Snapshot(), Scopes: ScopeSections()}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DumpJSON writes the default registry's snapshot (with per-scope
// sections) to path atomically: a signal or crash arriving mid-flush
// leaves path absent or with its previous content, never truncated.
func DumpJSON(path string) error {
	return persist.WriteTo(path, WriteJSON)
}
