package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"graphio/internal/obs"
)

// ChebOptions tunes ChebFilteredSmallest.
type ChebOptions struct {
	// Tol is the relative residual tolerance. Default 1e-8.
	Tol float64
	// Degree of the Chebyshev filter polynomial per iteration. Default 60.
	Degree int
	// MaxIter bounds the filtered subspace iterations. Default 60.
	MaxIter int
	// Block is the subspace width. Default h + max(12, h/4).
	Block int
	// Seed seeds the start block. Default 1.
	Seed int64
}

func (o *ChebOptions) withDefaults(n, h int) ChebOptions {
	out := ChebOptions{Tol: 1e-8, Degree: 60, MaxIter: 60, Seed: 1}
	if o != nil {
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		if o.Degree > 0 {
			out.Degree = o.Degree
		}
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		if o.Block > 0 {
			out.Block = o.Block
		}
		if o.Seed != 0 {
			out.Seed = o.Seed
		}
	}
	if out.Block == 0 {
		extra := h / 4
		if extra < 12 {
			extra = 12
		}
		out.Block = h + extra
	}
	if out.Block > n {
		out.Block = n
	}
	return out
}

// ChebFilteredSmallest computes the h smallest eigenvalues — with
// multiplicity — of the symmetric PSD operator A with λmax(A) ≤ c, by
// Chebyshev-filtered subspace iteration: each sweep applies a degree-d
// Chebyshev polynomial that damps the unwanted interval [aCut, c] onto
// [−1, 1] while amplifying [0, aCut) exponentially, then orthonormalizes
// the block and Rayleigh–Ritz-extracts eigenpair estimates. Being a block
// method it converges through clustered spectra and high-multiplicity
// eigenvalues (butterflies, hypercubes) where single-vector Lanczos needs
// one restart per eigenvalue copy.
func ChebFilteredSmallest(A Operator, c float64, h int, opt *ChebOptions) ([]float64, error) {
	return ChebFilteredSmallestContext(context.Background(), A, c, h, opt)
}

// ChebFilteredSmallestContext is ChebFilteredSmallest with cooperative
// cancellation: ctx is checked at every sweep boundary and between filtered
// columns, so a deadline or cancellation interrupts the solve without
// waiting for the full subspace iteration to run its course.
func ChebFilteredSmallestContext(ctx context.Context, A Operator, c float64, h int, opt *ChebOptions) ([]float64, error) {
	n := A.Dim()
	if h <= 0 {
		return nil, errors.New("linalg: ChebFilteredSmallest: h must be positive")
	}
	if h > n {
		h = n
	}
	if n == 0 {
		return nil, nil
	}
	o := opt.withDefaults(n, h)
	b := o.Block
	scale := c
	if scale < 1 {
		scale = 1
	}
	tol := o.Tol * scale
	rng := rand.New(rand.NewSource(o.Seed))
	// The block can grow: when a degenerate cluster straddles the block
	// boundary (butterfly spectra have multiplicities in the hundreds), no
	// cut point separates wanted from damped directions until the block
	// swallows the whole cluster.
	maxBlock := 4*h + 64
	if maxBlock > n {
		maxBlock = n
	}
	if b > maxBlock {
		maxBlock = b
	}

	// Random orthonormal start block.
	X := make([][]float64, b)
	//lint:ignore ctx-loop O(n·b) random start-block fill; the filter sweeps below check ctx every iteration
	for i := range X {
		X[i] = make([]float64, n)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	if err := orthonormalizeBlock(X, rng); err != nil {
		return nil, err
	}

	// Pilot cut point from a short Lanczos run: roughly where the h-th
	// smallest eigenvalue sits. Adapted every iteration afterwards.
	aCut := pilotCut(ctx, A, c, h, rng)
	if err := ctxErr(ctx, "Chebyshev"); err != nil {
		return nil, err
	}

	var theta []float64
	var resid []float64
	degree := o.Degree
	prevWorst := math.Inf(1)
	cappedNoGap := 0 // consecutive sweeps stuck at max block with no usable gap

	// Solver telemetry, reported once per solve so the sweep loop carries
	// no per-iteration observability cost.
	sweeps := 0
	growths := 0
	lastWorst := math.NaN()
	defer func() {
		if !obs.Enabled() {
			return
		}
		obs.AddCtx(ctx, "linalg.eigensolver.iterations", int64(sweeps))
		obs.AddCtx(ctx, "linalg.cheb.sweeps", int64(sweeps))
		obs.AddCtx(ctx, "linalg.cheb.block_growths", int64(growths))
		obs.SetGaugeCtx(ctx, "linalg.cheb.block", float64(b))
		obs.SetGaugeCtx(ctx, "linalg.cheb.degree", float64(degree))
		obs.SetGaugeCtx(ctx, "linalg.cheb.worst_residual", lastWorst) // NaN before the first sweep is dropped
	}()

	for iter := 0; iter < o.MaxIter; iter++ {
		if err := ctxErr(ctx, "Chebyshev"); err != nil {
			return nil, err
		}
		sweeps++
		// Precision cap on the filter degree: the amplification ratio
		// between the bottom of the spectrum and the cut grows like
		// exp(d·acosh(m0)) with m0 the affine image of 0; letting it pass
		// ~1e12 erases the boundary cluster from the block in float64 and
		// the sweep collapses. Sharper separation beyond the cap must come
		// from block growth, not degree.
		m0 := (c + aCut) / (c - aCut)
		dcap := 400
		if ac := math.Acosh(m0); ac > 0 {
			dcap = int(27 / ac)
		}
		if dcap < 10 {
			dcap = 10
		}
		degEff := degree
		if degEff > dcap {
			degEff = dcap
		}
		// Filter the block: X ← p(A)·X with p the scaled Chebyshev
		// polynomial on [aCut, c].
		chebFilterBlock(ctx, A, X, aCut, c, degEff)
		if err := ctxErr(ctx, "Chebyshev"); err != nil {
			return nil, err // the filter bailed out mid-block
		}
		if err := orthonormalizeBlock(X, rng); err != nil {
			return nil, err // a poisoned mat-vec in the filter
		}
		b = len(X)

		// Rayleigh-Ritz on the filtered subspace. The block mat-vecs and
		// the Gram matrix rows are embarrassingly parallel.
		W := make([][]float64, b) // W = A·X, reused for residuals
		parallelFor(b, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				W[i] = make([]float64, n)
				A.MatVec(W[i], X[i])
			}
		})
		H := NewDense(b)
		parallelFor(b, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for j := i; j < b; j++ {
					v := Dot(X[i], W[j])
					H.Set(i, j, v)
					H.Set(j, i, v)
				}
			}
		})
		if err := CheckFinite("Chebyshev Gram matrix", H.Data); err != nil {
			// A poisoned mat-vec (NaN/Inf leak) shows up in the projected
			// matrix before anywhere else; fail typed instead of feeding the
			// dense eigensolver garbage.
			return nil, err
		}
		vals, S, err := SymEig(H, true)
		if err != nil {
			return nil, fmt.Errorf("linalg: Chebyshev Rayleigh-Ritz: %w", err)
		}
		theta = vals
		rotateBlock(X, S)
		rotateBlock(W, S)

		// Converged when the h smallest Ritz pairs have small residuals.
		resid = resid[:0]
		worst := 0.0
		for i := 0; i < h; i++ {
			var r2 float64
			for j := 0; j < n; j++ {
				d := W[i][j] - theta[i]*X[i][j]
				r2 += d * d
			}
			r := math.Sqrt(r2)
			resid = append(resid, r)
			if r > worst {
				worst = r
			}
		}
		lastWorst = worst
		if obs.EventsEnabled() {
			obs.Probe("linalg.cheb").IterCtx(ctx, int64(iter),
				obs.FI("block", int64(b)),
				obs.FI("degree", int64(degEff)),
				obs.F("cut", aCut),
				obs.F("worst_resid", worst),
				obs.F("theta_h", theta[h-1]))
		}
		if worst <= tol {
			return clampSpectrum(theta[:h:h], scale), nil
		}

		// Adapt the cut: place it in the largest relative gap at or above
		// the h-th Ritz value, so a cluster straddling position h stays
		// wholly inside the amplified interval.
		bestGap, bestAt := -1.0, b-1
		for i := h - 1; i < b-1; i++ {
			gap := (theta[i+1] - theta[i]) / (theta[i+1] + 1e-12*scale)
			if gap > bestGap {
				bestGap, bestAt = gap, i
			}
		}
		stagnant := worst > prevWorst/1.5
		prevWorst = worst
		if bestGap < 0.02 && b >= maxBlock && stagnant {
			// A degenerate cluster wider than the block cap straddles the
			// boundary: no cut will ever separate it, so further sweeps
			// cannot converge the tail. Bail out to the sound padded
			// result below once this persists (the padded tail barely
			// matters: the bound's maximizing k is far below h here).
			cappedNoGap++
			if cappedNoGap >= 3 {
				break
			}
		} else {
			cappedNoGap = 0
		}
		if stagnant {
			if bestGap < 0.02 && b < maxBlock {
				// The window above position h is a near-flat cluster
				// (possibly a single degenerate eigenvalue spilling past
				// the block): no cut separates inside it. Grow the block
				// until the cluster — and a real gap — fits.
				growths++
				grow := b / 2
				if b+grow > maxBlock {
					grow = maxBlock - b
				}
				for g := 0; g < grow; g++ {
					col := make([]float64, n)
					for j := range col {
						col[j] = rng.NormFloat64()
					}
					X = append(X, col)
				}
				if err := orthonormalizeBlock(X, rng); err != nil {
					return nil, err
				}
				b = len(X)
				prevWorst = math.Inf(1)
				continue
			}
			// A usable gap exists but convergence stalls: sharpen the
			// filter (the precision cap above still applies).
			if degree < 256 {
				degree *= 2
			}
		}
		newCut := 0.5 * (theta[bestAt] + theta[bestAt+1])
		if low := theta[h-1] * 1.0001; newCut < low {
			newCut = low
		}
		if floor := 1e-6 * scale; newCut < floor {
			newCut = floor
		}
		if ceil := 0.95 * c; newCut > ceil {
			newCut = ceil
		}
		aCut = newCut
	}

	// Out of sweeps. Return the converged prefix with a *sound* tail: pad
	// unconverged positions with the last converged value. The spectrum is
	// ascending, so the padded values never overestimate the true ones and
	// every bound computed from them stays a valid lower bound (slightly
	// weaker at large k, which the k sweep rarely uses).
	p := 0
	for p < h && resid[p] <= tol {
		p++
	}
	if p == 0 {
		return nil, &NotConvergedError{
			Solver: "Chebyshev", Requested: h, Converged: 0,
			Reason: fmt.Sprintf("no Ritz pair converged in %d sweeps", o.MaxIter),
		}
	}
	// Partial convergence: pad the tail soundly (see above) and count the
	// degradation so an operator can see that a run returned a padded —
	// valid but weaker at large k — spectrum.
	obs.AddCtx(ctx, "linalg.cheb.padded_tail", int64(h-p))
	if h > p {
		obs.IncCtx(ctx, "linalg.cheb.padded_solves")
	}
	out := make([]float64, h)
	copy(out, theta[:p])
	for i := p; i < h; i++ {
		out[i] = theta[p-1]
	}
	return clampSpectrum(out, scale), nil
}

// clampSpectrum zeroes the tiny negatives PSD round-off produces.
func clampSpectrum(vals []float64, scale float64) []float64 {
	for i := range vals {
		if vals[i] < 0 && vals[i] > -1e-8*scale {
			vals[i] = 0
		}
	}
	return vals
}

// pilotCut estimates where the h-th smallest eigenvalue lies using a short
// Lanczos run; a rough value suffices (the main loop re-adapts it). A
// cancelled ctx cuts the pilot short; the fallback c/2 estimate is fine
// because the caller aborts at its next boundary check anyway.
func pilotCut(ctx context.Context, A Operator, c float64, h int, rng *rand.Rand) float64 {
	n := A.Dim()
	m := 60
	if m > n {
		m = n
	}
	v := make([]float64, n)
	//lint:ignore ctx-loop O(n) random vector fill; the pilot Lanczos loop below checks ctx
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if EqZero(Normalize(v)) {
		return c / 2
	}
	V := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	w := make([]float64, n)
	for j := 0; j < m; j++ {
		if ctx.Err() != nil {
			return c / 2
		}
		V = append(V, v)
		A.MatVec(w, v)
		if j > 0 {
			Axpy(-beta[j-1], V[j-1], w)
		}
		a := Dot(w, v)
		alpha = append(alpha, a)
		Axpy(-a, v, w)
		OrthogonalizeAgainst(w, V)
		bnorm := Norm2(w)
		if EqZero(bnorm) || j == m-1 {
			break
		}
		beta = append(beta, bnorm)
		nv := make([]float64, n)
		copy(nv, w)
		Scale(1/bnorm, nv)
		v = nv
	}
	vals, _, err := TridiagEig(alpha, beta[:len(alpha)-1], false)
	if err != nil || len(vals) == 0 || !isFinite(vals[len(vals)/4]) {
		return c / 2
	}
	// Ritz values of a short run overestimate the low end; take an early
	// quantile and pad upward.
	idx := len(vals) / 4
	cut := vals[idx] * 1.5
	if floor := 1e-6 * c; cut < floor {
		cut = floor
	}
	if cut > 0.95*c {
		cut = 0.95 * c
	}
	return cut
}

// chebFilterBlock applies the degree-d scaled Chebyshev filter for the
// damp interval [a, c] to every column of X in place, using the three-term
// recurrence T_{k+1}(t) = 2t·T_k(t) − T_{k-1}(t) on the affine map sending
// [a, c] to [−1, 1]. Columns are rescaled each step to dodge overflow (the
// amplification at the low end is exponential in d). Columns are
// independent, so they are filtered by a pool of workers; each worker
// carries its own recurrence buffers. Cancelling ctx makes workers stop
// between columns; the caller re-checks ctx after the block returns.
func chebFilterBlock(ctx context.Context, A Operator, X [][]float64, a, c float64, degree int) {
	n := A.Dim()
	e := (c - a) / 2
	mid := (c + a) / 2
	parallelFor(len(X), func(lo, hi int) {
		y := make([]float64, n)
		prev := make([]float64, n)
		cur := make([]float64, n)
		for col := lo; col < hi; col++ {
			if ctx.Err() != nil {
				return
			}
			x := X[col]
			copy(prev, x) // T_0 · x
			// T_1 · x = (A − mid)x / e
			A.MatVec(y, x)
			for j := 0; j < n; j++ {
				cur[j] = (y[j] - mid*x[j]) / e
			}
			for k := 2; k <= degree; k++ {
				A.MatVec(y, cur)
				for j := 0; j < n; j++ {
					y[j] = 2*(y[j]-mid*cur[j])/e - prev[j]
				}
				prev, cur, y = cur, y, prev
				if k%16 == 0 {
					if s := Norm2(cur); s > 1e100 {
						Scale(1/s, cur)
						Scale(1/s, prev)
					}
				}
			}
			copy(x, cur)
		}
	})
}

// parallelFor splits [0, n) across GOMAXPROCS workers, each receiving a
// contiguous chunk. Falls back to a direct call when one worker suffices.
func parallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// orthonormalizeBlock runs two passes of modified Gram-Schmidt over the
// block's columns, replacing any numerically collapsed column with a fresh
// random direction orthogonal to the rest. A column whose norm is NaN or
// ±Inf is not collapsed but poisoned: it fails with a *NonFiniteError
// rather than being replaced.
func orthonormalizeBlock(X [][]float64, rng *rand.Rand) error {
	for i := range X {
		for attempt := 0; ; attempt++ {
			for pass := 0; pass < 2; pass++ {
				for j := 0; j < i; j++ {
					Axpy(-Dot(X[i], X[j]), X[j], X[i])
				}
			}
			nrm := Normalize(X[i])
			if !isFinite(nrm) {
				return &NonFiniteError{Where: "Chebyshev orthonormalization"}
			}
			if nrm > 1e-10 {
				break
			}
			if attempt > 4 {
				// Give up gracefully: leave a random unit vector (it will
				// be cleaned up by the next sweep's Rayleigh-Ritz).
				break
			}
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
			}
		}
	}
	return nil
}

// rotateBlock computes X ← X·S for an n-column block and a small square
// rotation S (column i of the result is Σ_j S[j][i] X_j). Destination
// columns are independent and computed in parallel.
func rotateBlock(X [][]float64, S *Dense) {
	b := len(X)
	if b == 0 {
		return
	}
	n := len(X[0])
	out := make([][]float64, b)
	parallelFor(b, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			col := make([]float64, n)
			for j := 0; j < b; j++ {
				if s := S.At(j, i); !EqZero(s) {
					Axpy(s, X[j], col)
				}
			}
			out[i] = col
		}
	})
	for i := range X {
		copy(X[i], out[i])
	}
}
