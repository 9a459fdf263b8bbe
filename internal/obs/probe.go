package obs

import (
	"context"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/persist"
)

// The probe layer records per-iteration solver events — one event per
// Chebyshev sweep, bisection refinement, Dinic phase, pebble step
// sample — for convergence analysis (obsreport convergence).
// Like the trace collector it is off by default and gated on one atomic
// load, so instrumented inner loops cost nothing in production runs; call
// sites that compute fields should additionally guard on EventsEnabled so
// the field math itself is skipped when nobody is listening.
//
// Events buffer in memory (bounded, with a dropped counter) and are
// flushed at Finish/interrupt time by DumpEvents as CRC-framed JSONL in
// the internal/persist journal format: each line is
//
//	{"crc":"xxxxxxxx","rec":{"probe":NAME,"iter":I,"t_ns":T,"f":{...}}}
//
// so persist.ReadJournal replays an event log with the same torn-tail
// tolerance as any other journal. Buffer-then-atomic-commit rather than
// journal appends keeps the per-record fsync out of solver inner loops
// while producing byte-identical framing.
const maxProbeEvents = 1 << 20

// Field is one named measurement on a probe event. Values are float64
// across the board (iteration counts included) to keep the event schema
// single-typed; non-finite values are dropped at record time because JSON
// cannot represent them.
type Field struct {
	Key string
	Val float64
}

// F builds a float-valued field.
func F(key string, v float64) Field { return Field{Key: key, Val: v} }

// FI builds an integer-valued field.
func FI(key string, v int64) Field { return Field{Key: key, Val: float64(v)} }

// ProbeRef is a named handle into the event collector. It is a value type
// with no state, so Probe(name) in an inner loop allocates nothing.
type ProbeRef struct {
	name string
}

// Probe returns a handle for emitting events under name. Names follow the
// metric convention ("pkg.event", lint-enforced): linalg.cheb,
// maxflow.dinic, pebble.simulate.
func Probe(name string) ProbeRef { return ProbeRef{name: name} }

// IterCtx records one per-iteration event attributed to ctx's scope: the
// buffered event carries the scope path and correlation ID, WriteEvents
// renders them, and the scope chain's event counters tick. With no scope
// on ctx the event is unattributed. With the collector stopped it is a
// single atomic load and return.
func (p ProbeRef) IterCtx(ctx context.Context, iter int64, fields ...Field) {
	if !probes.on.Load() {
		return
	}
	recordProbeEvent(FromContext(ctx), p.name, iter, fields)
}

// ProbeEvent is one buffered event. TNS is nanoseconds since StartEvents.
// Scope and ScopeID are empty on unattributed events.
type ProbeEvent struct {
	Probe   string
	Iter    int64
	TNS     int64
	Scope   string
	ScopeID string
	Fields  []Field
}

var probes struct {
	on atomic.Bool

	mu      sync.Mutex
	start   time.Time
	events  []ProbeEvent
	dropped int64
}

// StartEvents begins buffering probe events (idempotent).
func StartEvents() {
	probes.mu.Lock()
	if probes.start.IsZero() {
		probes.start = Now()
	}
	probes.mu.Unlock()
	probes.on.Store(true)
}

// StopEvents stops buffering. Already-buffered events stay available to
// WriteEvents until ResetEvents.
func StopEvents() { probes.on.Store(false) }

// EventsEnabled reports whether probe events are being collected. Call
// sites use it to skip field computation entirely when probes are off.
func EventsEnabled() bool { return probes.on.Load() }

// ResetEvents drops all buffered events (tests, mainly).
func ResetEvents() {
	probes.mu.Lock()
	probes.events = nil
	probes.start = time.Time{}
	probes.dropped = 0
	probes.mu.Unlock()
}

// EventStats reports the collector's buffered and dropped event counts.
func EventStats() (buffered int, dropped int64) {
	probes.mu.Lock()
	defer probes.mu.Unlock()
	return len(probes.events), probes.dropped
}

func recordProbeEvent(sc *Scope, name string, iter int64, fields []Field) {
	now := Now()
	kept := make([]Field, 0, len(fields))
	for _, f := range fields {
		if math.IsNaN(f.Val) || math.IsInf(f.Val, 0) {
			continue
		}
		kept = append(kept, f)
	}
	ev := ProbeEvent{Probe: name, Iter: iter, Fields: kept}
	if sc != nil {
		ev.Scope = sc.path
		ev.ScopeID = sc.id
		for c := sc; c != nil; c = c.parent {
			c.events.Add(1)
		}
	}
	probes.mu.Lock()
	if len(probes.events) >= maxProbeEvents {
		probes.dropped++
		probes.mu.Unlock()
		return
	}
	start := probes.start
	if start.IsZero() {
		// StartEvents always sets start before flipping on; this is only
		// reachable if a racing ResetEvents cleared it. Anchor at now.
		probes.start = now
		start = now
	}
	ev.TNS = now.Sub(start).Nanoseconds()
	probes.events = append(probes.events, ev)
	probes.mu.Unlock()
}

// WriteEvents serializes the buffered events as CRC-framed JSONL in the
// persist journal format, in record order. Fields render in the order the
// call site passed them, with strconv's shortest-round-trip float format,
// so output is deterministic for golden tests.
func WriteEvents(w io.Writer) error {
	probes.mu.Lock()
	events := append([]ProbeEvent(nil), probes.events...)
	dropped := probes.dropped
	probes.mu.Unlock()
	if dropped > 0 {
		logf("events: %d probe events dropped past the %d-event buffer", dropped, maxProbeEvents)
	}
	var b strings.Builder
	for i := range events {
		b.Reset()
		e := &events[i]
		b.WriteString(`{"probe":`)
		b.WriteString(quoteJSON(e.Probe))
		b.WriteString(`,"iter":`)
		b.WriteString(strconv.FormatInt(e.Iter, 10))
		b.WriteString(`,"t_ns":`)
		b.WriteString(strconv.FormatInt(e.TNS, 10))
		if e.Scope != "" {
			// Attributed events carry their scope; unattributed ones render
			// byte-identically to the pre-scope format, so old goldens and
			// `obsreport convergence` keep working unchanged.
			b.WriteString(`,"scope":`)
			b.WriteString(quoteJSON(e.Scope))
			b.WriteString(`,"scope_id":`)
			b.WriteString(quoteJSON(e.ScopeID))
		}
		b.WriteString(`,"f":{`)
		for j, f := range e.Fields {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(quoteJSON(f.Key))
			b.WriteByte(':')
			b.WriteString(strconv.FormatFloat(f.Val, 'g', -1, 64))
		}
		b.WriteString("}}")
		frame, err := persist.FrameRecord([]byte(b.String()))
		if err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	return nil
}

// DumpEvents writes the buffered event log to path atomically (temp file
// + rename), so an interrupt landing mid-flush cannot leave a torn file:
// the first SIGINT's flush is CRC-clean end to end.
func DumpEvents(path string) error {
	return persist.WriteTo(path, WriteEvents)
}
