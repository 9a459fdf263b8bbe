package experiments

// Sweep progress and ETA. The tracker knows which experiments a sweep
// selected, how long each took in prior runs (manifest wall-time
// history), and how long completed experiments took in this run; from
// that it estimates remaining wall time. The estimate is published two
// ways: the heartbeat/done status lines on the terminal, and the
// /progress debug endpoint through obs.SetSweepStatus.
//
// ETA semantics, in order of preference per unfinished experiment:
//
//  1. its own wall time from the manifest history (same experiment,
//     earlier run — the strongest predictor);
//  2. otherwise the mean wall time over everything with known history
//     plus everything completed this run;
//  3. when neither exists (first run, nothing finished yet), the ETA is
//     unknown and reported as such rather than guessed.
//
// The running experiment contributes max(0, estimate − elapsed), so the
// ETA shrinks smoothly while a long solve is in flight.

import (
	"fmt"
	"sync"
	"time"

	"graphio/internal/obs"
)

type etaTracker struct {
	mu         sync.Mutex
	history    map[string]time.Duration // name → wall time from prior manifests
	unfinished map[string]bool          // selected, not yet done/skipped (includes current)
	runWalls   []time.Duration          // wall times completed this run
	total      int
	done       int
	failed     int
	skipped    int
	current    string
	currentAt  time.Time
}

// newETATracker starts tracking a sweep over the named experiments.
// history may be nil (no manifest, or first run into a fresh outDir).
func newETATracker(names []string, history map[string]time.Duration) *etaTracker {
	e := &etaTracker{
		history:    history,
		unfinished: make(map[string]bool, len(names)),
		total:      len(names),
	}
	for _, n := range names {
		e.unfinished[n] = true
	}
	return e
}

// begin marks name as the currently running experiment.
func (e *etaTracker) begin(name string) {
	e.mu.Lock()
	e.current = name
	e.currentAt = obs.Now()
	e.mu.Unlock()
}

// finish marks name complete (ok or failed) with its measured wall time,
// which feeds later estimates for experiments without their own history.
func (e *etaTracker) finish(name string, wall time.Duration, didFail bool) {
	e.mu.Lock()
	if e.unfinished[name] {
		delete(e.unfinished, name)
		e.done++
		if didFail {
			e.failed++
		}
		e.runWalls = append(e.runWalls, wall)
	}
	if e.current == name {
		e.current = ""
	}
	e.mu.Unlock()
}

// skip marks name as not running this sweep (resume reuse, or a
// cancelled sweep that never started it).
func (e *etaTracker) skip(name string) {
	e.mu.Lock()
	if e.unfinished[name] {
		delete(e.unfinished, name)
		e.skipped++
	}
	e.mu.Unlock()
}

// eta estimates remaining wall time. The second result is false while no
// history exists to estimate from.
func (e *etaTracker) eta() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.etaLocked()
}

func (e *etaTracker) etaLocked() (time.Duration, bool) {
	// Mean over all known wall times: this run's measurements plus prior
	// history for experiments in this sweep.
	var sum time.Duration
	n := 0
	for _, w := range e.runWalls {
		sum += w
		n++
	}
	for name := range e.unfinished {
		if w, ok := e.history[name]; ok {
			sum += w
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	mean := sum / time.Duration(n)
	var rem time.Duration
	for name := range e.unfinished {
		est := mean
		if w, ok := e.history[name]; ok {
			est = w
		}
		if name == e.current {
			est -= obs.Since(e.currentAt)
			if est < 0 {
				est = 0
			}
		}
		rem += est
	}
	return rem, true
}

// status implements the obs sweep-status provider contract.
func (e *etaTracker) status() (obs.SweepStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := obs.SweepStatus{
		Total:   e.total,
		Done:    e.done,
		Failed:  e.failed,
		Skipped: e.skipped,
		Current: e.current,
	}
	if e.current != "" {
		st.CurrentElapsedNS = obs.Since(e.currentAt).Nanoseconds()
	}
	if rem, ok := e.etaLocked(); ok {
		st.ETAKnown = true
		st.ETANS = rem.Nanoseconds()
	}
	return st, true
}

// progressLine renders the compact "k/N done, ETA ~x" fragment the
// heartbeat and per-experiment status lines append.
func (e *etaTracker) progressLine() string {
	st, _ := e.status()
	s := fmt.Sprintf("%d/%d done", st.Done+st.Skipped, st.Total)
	if st.ETAKnown {
		s += fmt.Sprintf(", ETA ~%v", time.Duration(st.ETANS).Round(time.Second))
	}
	return s
}
