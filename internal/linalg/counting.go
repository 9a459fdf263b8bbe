package linalg

import (
	"sync/atomic"

	"graphio/internal/obs"
)

// CountingOperator wraps an Operator, counts MatVec applications, and
// feeds each application's latency into the "linalg.matvec_ns" histogram.
// The increment is atomic because the Chebyshev solver applies the filter
// from a pool of worker goroutines; one atomic add plus two clock reads
// are negligible next to the O(nnz) mat-vec they measure. The
// spectral-bound core wraps solver inputs with it only when observability
// is enabled, so the count covers pilot runs, filter applications and
// residual checks alike.
type CountingOperator struct {
	A Operator
	// Scope attributes the latency histogram to a telemetry scope; the
	// operator cannot take a context (MatVec is the hot interface), so the
	// wrapper resolves the scope once at construction. Nil routes to the
	// default registry unchanged.
	Scope *obs.Scope
	n     atomic.Int64
}

// Dim implements Operator.
func (c *CountingOperator) Dim() int { return c.A.Dim() }

// MatVec implements Operator, counting and timing the application.
func (c *CountingOperator) MatVec(dst, src []float64) {
	c.n.Add(1)
	start := obs.Now()
	c.A.MatVec(dst, src)
	c.Scope.ObserveHist("linalg.matvec_ns", obs.Since(start).Nanoseconds())
}

// Count returns the number of MatVec applications so far.
func (c *CountingOperator) Count() int64 { return c.n.Load() }
