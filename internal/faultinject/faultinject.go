// Package faultinject wraps a linalg.Operator to deterministically inject
// numerical and timing faults into eigensolves: NaN/Inf poisoning, additive
// noise that forces non-convergence, and per-call stalls that exercise
// deadline and cancellation paths. Everything is driven by call counts, so
// a faulted run is exactly reproducible — the same solve sees the same
// faults at the same matvec applications every time.
//
// The package exists so the escalation chain in internal/core and the
// cancellation plumbing across the pipeline can be tested end to end
// without contriving pathological graphs: wrap the operator (e.g. via
// core.Options.WrapOperator), dial in a fault window, and assert on how the
// pipeline degrades. It is stdlib-only and safe for concurrent use.
package faultinject

import (
	"math"
	"sync/atomic"
	"time"

	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// process is the scope the fault counters emit through. Faults are
// process-level by design, so it stays nil, which routes every count to
// obs's default registry.
var process *obs.Scope

// Op wraps an Operator and injects faults into MatVec by call number.
// Call numbers are 1-based; a threshold field of 0 disables that fault.
// The zero window (Until == 0) keeps a fault active forever once it starts.
type Op struct {
	// A is the wrapped operator. Required.
	A linalg.Operator

	// NaNFrom, when > 0, overwrites one output element with NaN on every
	// MatVec call numbered ≥ NaNFrom (within the Until window).
	NaNFrom int64
	// InfFrom, when > 0, overwrites one output element with +Inf likewise.
	InfFrom int64
	// NoiseFrom, when > 0, adds deterministic pseudo-random noise of
	// amplitude NoiseAmp to every output element on calls ≥ NoiseFrom.
	// Noise large enough to swamp the residual tolerance forces iterative
	// solvers into non-convergence without ever producing a non-finite
	// value — the "plausible garbage" failure mode.
	NoiseFrom int64
	// NoiseAmp is the noise amplitude. Default 1.0 when NoiseFrom is set.
	NoiseAmp float64
	// StallFrom, when > 0, sleeps Stall on every call ≥ StallFrom —
	// simulating an operator that has slowed to a crawl so deadlines and
	// cancellation fire mid-solve.
	StallFrom int64
	// Stall is the per-call sleep for StallFrom. Default 1ms when
	// StallFrom is set.
	Stall time.Duration
	// Until, when > 0, is the last call number (inclusive) at which any
	// fault fires; later calls pass through untouched. This models
	// transient faults: early attempts fail, a retry succeeds.
	Until int64

	calls  atomic.Int64
	faults atomic.Int64
}

// Dim implements linalg.Operator.
func (o *Op) Dim() int { return o.A.Dim() }

// MatVec implements linalg.Operator, applying the wrapped operator and then
// whatever faults are armed for this call number.
func (o *Op) MatVec(dst, src []float64) {
	n := o.calls.Add(1)
	o.A.MatVec(dst, src)
	if o.Until > 0 && n > o.Until {
		return
	}
	faulted := false
	if o.StallFrom > 0 && n >= o.StallFrom {
		d := o.Stall
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
		faulted = true
	}
	if o.NoiseFrom > 0 && n >= o.NoiseFrom && len(dst) > 0 {
		amp := o.NoiseAmp
		if linalg.EqZero(amp) {
			amp = 1.0
		}
		for i := range dst {
			dst[i] += amp * unitNoise(uint64(n), uint64(i))
		}
		faulted = true
	}
	if o.NaNFrom > 0 && n >= o.NaNFrom && len(dst) > 0 {
		dst[int(n)%len(dst)] = math.NaN()
		faulted = true
	}
	if o.InfFrom > 0 && n >= o.InfFrom && len(dst) > 0 {
		dst[int(n)%len(dst)] = math.Inf(1)
		faulted = true
	}
	if faulted {
		o.faults.Add(1)
		process.Inc("faultinject.faulted_matvecs")
	}
}

// Calls returns how many MatVec applications the wrapped operator has seen.
func (o *Op) Calls() int64 { return o.calls.Load() }

// Faults returns how many MatVec applications had at least one fault
// injected.
func (o *Op) Faults() int64 { return o.faults.Load() }

// unitNoise maps (call, index) to a deterministic value in [-1, 1) with a
// splitmix64-style mix — no shared RNG state, so concurrent solvers and
// repeated attempts see identical noise for identical call numbers.
func unitNoise(call, idx uint64) float64 {
	z := call*0x9E3779B97F4A7C15 + idx + 0x632BE59BD9B4E019
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	// Top 53 bits → [0,1), then shift to [-1,1).
	return float64(z>>11)/float64(1<<53)*2 - 1
}
