// Package core implements the paper's primary contribution: spectral lower
// bounds on the I/O complexity of computation graphs (Jain & Zaharia,
// SPAA 2020).
//
// For a computation graph G with n vertices evaluated on a machine with fast
// memory of size M, the optimal non-trivial I/O J*_G is bounded below, for
// every k ≤ n, by
//
//	J*_G ≥ ⌊n/k⌋ · Σ_{i=1..k} λ_i(L̃) − 2kM          (Theorem 4)
//
// where λ_1 ≤ λ_2 ≤ … are the eigenvalues of the out-degree-normalized
// Laplacian L̃. Theorem 5 trades tightness for convenience by using the
// plain Laplacian L and dividing by the maximum out-degree; Theorem 6
// extends the bound to p processors by replacing ⌊n/k⌋ with ⌊n/(kp)⌋.
// The bound is maximized over k ∈ {1..h} (the paper uses h = 100; see
// §6.1/§6.5 — the best k is empirically far below 100).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// Solver selects the eigenvalue backend. The numeric values enter
// experiment config hashes, so they never change: 2 and 3 belonged to
// retired solvers (Lanczos and deflated power iteration).
type Solver int

const (
	// SolverAuto uses the dense solver below Options.DenseCutoff vertices
	// and Chebyshev-filtered subspace iteration above it.
	SolverAuto Solver = 0
	// SolverDense computes the full spectrum with the O(n^3) dense solver.
	SolverDense Solver = 1
	// SolverChebyshev computes the h smallest eigenvalues with
	// Chebyshev-filtered subspace iteration — a polynomial-accelerated
	// block power iteration (the paper's "computable by power iteration"
	// route) that handles the clustered, high-multiplicity spectra of
	// structured computation graphs (butterflies, hypercubes, Strassen).
	// The SolverAuto default above the dense cutoff.
	SolverChebyshev Solver = 4
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverDense:
		return "dense"
	case SolverChebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver maps a solver name, trimmed and case-insensitive, to its
// Solver: "" or "auto", "dense", and "chebyshev" or "cheb".
func ParseSolver(name string) (Solver, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return SolverAuto, nil
	case "dense":
		return SolverDense, nil
	case "chebyshev", "cheb":
		return SolverChebyshev, nil
	default:
		return 0, fmt.Errorf("unknown solver %q (want auto, dense or chebyshev)", name)
	}
}

// NonFiniteError reports NaN or ±Inf contamination detected at a core phase
// boundary (eigensolve output, k-sweep bound). It is the core-level
// counterpart of linalg.NonFiniteError.
type NonFiniteError struct {
	// Where locates the check that fired.
	Where string
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("core: non-finite value detected at %s", e.Where)
}

// Options configures SpectralBound.
type Options struct {
	// M is the fast-memory size in elements. Required, ≥ 1.
	M int
	// MaxK is h, the number of smallest eigenvalues computed and the upper
	// end of the k sweep. Default 100 (paper §6.1).
	MaxK int
	// Laplacian selects Theorem 4 (OutDegreeNormalized, the default) or
	// Theorem 5 (Original, dividing by the maximum out-degree).
	Laplacian laplacian.Kind
	// Processors is p in Theorem 6. Default 1 (serial bound).
	Processors int
	// Solver selects the eigenvalue backend. Default SolverAuto.
	Solver Solver
	// DenseCutoff is the vertex count at or below which SolverAuto picks
	// the dense path. Default 1024.
	DenseCutoff int
	// Chebyshev overrides the filtered-subspace solver options.
	Chebyshev *linalg.ChebOptions
	// WrapOperator, when non-nil, wraps the sparse Laplacian operator
	// before it reaches the Chebyshev eigensolver. It is applied fresh for
	// every solver attempt, so stateful wrappers (fault injectors, probes)
	// observe each attempt independently. The dense path builds its own
	// matrix and is never wrapped.
	WrapOperator func(linalg.Operator) linalg.Operator
	// DenseFallbackCap is the largest vertex count for which the escalation
	// chain may fall back to the O(n^3) dense solver after both Chebyshev
	// attempts have failed. Default 2048; negative disables the dense fallback.
	DenseFallbackCap int
	// NoFallback disables the escalation chain entirely: the first solver
	// failure is returned as an error, matching pre-fallback behavior.
	NoFallback bool
}

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = 100
	}
	if o.Processors == 0 {
		o.Processors = 1
	}
	if o.DenseCutoff == 0 {
		o.DenseCutoff = 1024
	}
	if o.DenseFallbackCap == 0 {
		o.DenseFallbackCap = 2048
	}
	return o
}

func (o Options) validate() error {
	if o.M < 1 {
		return errors.New("core: Options.M must be ≥ 1")
	}
	if o.MaxK < 0 {
		return errors.New("core: Options.MaxK must be ≥ 0")
	}
	if o.Processors < 0 {
		return errors.New("core: Options.Processors must be ≥ 0")
	}
	return nil
}

// Result reports a spectral lower bound and the diagnostics behind it.
type Result struct {
	// Bound is the I/O lower bound: max(0, max_k bound(k)).
	Bound float64
	// BestK is the k achieving Bound, or 0 when every k gives a
	// non-positive value (Bound == 0).
	BestK int
	// Raw is max_k bound(k) before clamping at zero; negative values mean
	// the spectral method certifies nothing for this (G, M).
	Raw float64
	// Eigenvalues holds the smallest min(h, n) Laplacian eigenvalues used,
	// ascending, after clamping round-off negatives to zero.
	Eigenvalues []float64
	// PerK[k-1] is the bound value for that k.
	PerK []float64
	// N, M, Processors, Kind and SolverUsed echo the configuration; after a
	// fallback, Kind and SolverUsed report what actually produced the bound
	// (e.g. Kind == Original after the Theorem 5 route).
	N          int
	M          int
	Processors int
	Kind       laplacian.Kind
	SolverUsed Solver
	// Degraded reports that the escalation chain had to deviate from the
	// requested configuration (seed retry, solver switch, dense fallback,
	// or Theorem 5 route) to produce this bound.
	Degraded bool
	// Fallbacks lists the degradation events, in order, human-readably.
	Fallbacks []string
}

// SpectralBound computes the paper's spectral I/O lower bound for g.
func SpectralBound(g *graph.Graph, opt Options) (*Result, error) {
	return SpectralBoundContext(context.Background(), g, opt)
}

// SpectralBoundContext is SpectralBound with cancellation and graceful
// degradation. The context is threaded into every eigensolve and checked at
// iteration boundaries; cancellation aborts the solve immediately without
// attempting fallbacks. When a solver fails for any other reason and
// Options.NoFallback is unset, an escalation chain tries progressively more
// robust configurations: one Chebyshev retry with a perturbed start seed,
// the dense solver when n ≤ Options.DenseFallbackCap, and finally the
// Theorem 5 route (original Laplacian with the max-out-degree divisor)
// when Theorem 4 was requested. Every degradation is recorded in
// Result.Fallbacks and counted under the core.fallback.* observability
// counters.
func SpectralBoundContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if n == 0 {
		return &Result{N: 0, M: opt.M, Processors: opt.Processors, Kind: opt.Laplacian, SolverUsed: opt.Solver}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: spectral bound interrupted: %w", err)
	}
	h := opt.MaxK
	if h > n {
		h = n
	}

	solver := opt.Solver
	if solver == SolverAuto {
		if n <= opt.DenseCutoff {
			solver = SolverDense
		} else {
			solver = SolverChebyshev
		}
	}
	if solver != SolverDense && solver != SolverChebyshev {
		return nil, fmt.Errorf("core: unknown solver %v", opt.Solver)
	}

	sp := obs.StartSpanCtx(ctx, "core.spectral_bound")
	sp.SetInt("n", int64(n))
	sp.SetInt("h", int64(h))
	sp.SetStr("solver", solver.String())
	sp.SetStr("laplacian", opt.Laplacian.String())
	defer sp.End()

	lambda, used, kind, events, err := solveSpectrum(ctx, g, solver, opt.Laplacian, h, opt, sp)
	if err != nil {
		return nil, err
	}
	if err := linalg.CheckFinite("core eigensolve output", lambda); err != nil {
		return nil, &NonFiniteError{Where: "eigensolve output"}
	}

	divisor := 1.0
	if kind == laplacian.Original {
		d := g.MaxOutDeg()
		if d == 0 {
			d = 1 // edgeless graph; the spectrum is all zeros anyway
		}
		divisor = float64(d)
	}

	for i, l := range lambda {
		if l < 0 {
			lambda[i] = 0 // PSD spectrum; clamp eigensolver round-off
		}
	}
	ksp := sp.Child("ksweep")
	bound, bestK, perK := BoundFromEigenvaluesContext(ctx, lambda, n, opt.M, opt.Processors, divisor)
	ksp.End()
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return nil, &NonFiniteError{Where: "k-sweep bound"}
	}
	sp.SetFloat("bound", bound)
	sp.SetInt("best_k", int64(bestK))
	res := &Result{
		Bound:       bound,
		BestK:       bestK,
		Raw:         rawMax(perK),
		Eigenvalues: lambda,
		PerK:        perK,
		N:           n,
		M:           opt.M,
		Processors:  opt.Processors,
		Kind:        kind,
		SolverUsed:  used,
		Degraded:    len(events) > 0,
		Fallbacks:   events,
	}
	return res, nil
}

// solveSpectrum produces the ascending h smallest Laplacian eigenvalues for
// g, escalating through fallbacks when solvers fail. It returns the solver
// and Laplacian kind that actually succeeded plus the degradation events.
func solveSpectrum(ctx context.Context, g *graph.Graph, solver Solver, kind laplacian.Kind, h int, opt Options, sp *obs.Span) ([]float64, Solver, laplacian.Kind, []string, error) {
	var events []string

	if solver == SolverDense {
		lambda, err := denseSpectrum(ctx, g, kind, h, sp)
		if err == nil {
			return lambda, SolverDense, kind, nil, nil
		}
		if opt.NoFallback || isInterrupt(err) {
			return nil, solver, kind, nil, err
		}
		// The dense path has no iteration budget to exhaust; a failure here
		// means a degenerate matrix. The iterative chain below is still
		// worth a shot before giving up.
		events = recordFallback(ctx, events, "solver",
			fmt.Sprintf("dense solve failed (%v); escalating to Chebyshev", err))
	}

	lambda, used, evs, err := iterativeChain(ctx, g, kind, h, opt, sp)
	events = append(events, evs...)
	if err == nil {
		return lambda, used, kind, events, nil
	}
	if opt.NoFallback || isInterrupt(err) {
		return nil, used, kind, events, err
	}

	// Terminal fallback: the Theorem 5 route. The original Laplacian with
	// the max-out-degree divisor is a sound (if looser) bound whenever the
	// normalized solve cannot be completed.
	if kind == laplacian.OutDegreeNormalized {
		events = recordFallback(ctx, events, "theorem5",
			fmt.Sprintf("all solvers failed on the normalized Laplacian (%v); falling back to the Theorem 5 bound on the original Laplacian", err))
		lambda, used, evs, err5 := iterativeChain(ctx, g, laplacian.Original, h, opt, sp)
		events = append(events, evs...)
		if err5 == nil {
			return lambda, used, laplacian.Original, events, nil
		}
		if isInterrupt(err5) {
			return nil, used, laplacian.Original, events, err5
		}
		err = errors.Join(err, err5)
	}
	return nil, used, kind, events, fmt.Errorf("core: all eigensolve fallbacks exhausted: %w", err)
}

// iterativeChain runs the Chebyshev solver, retries it once with a
// perturbed start seed, and finally falls back to the dense solver when n
// is at most Options.DenseFallbackCap.
func iterativeChain(ctx context.Context, g *graph.Graph, kind laplacian.Kind, h int, opt Options, sp *obs.Span) ([]float64, Solver, []string, error) {
	lsp := sp.Child("laplacian")
	L, err := laplacian.BuildCSR(g, kind)
	lsp.End()
	if err != nil {
		return nil, SolverChebyshev, nil, fmt.Errorf("core: building Laplacian: %w", err)
	}
	c := L.GershgorinUpper()

	var events []string
	var firstErr error
	for _, perturb := range []bool{false, true} {
		if err := ctx.Err(); err != nil {
			return nil, SolverChebyshev, events, fmt.Errorf("core: eigensolve interrupted: %w", err)
		}
		lambda, err := attemptSolve(ctx, L, c, h, perturb, opt, sp)
		if err == nil {
			if ferr := linalg.CheckFinite("eigensolve output", lambda); ferr != nil {
				obs.IncCtx(ctx, "core.fallback.nonfinite")
				err = &NonFiniteError{Where: "chebyshev eigensolve output"}
			} else {
				return lambda, SolverChebyshev, events, nil
			}
		}
		if isInterrupt(err) {
			if errors.Is(err, context.DeadlineExceeded) {
				obs.IncCtx(ctx, "core.deadline.hit")
			}
			return nil, SolverChebyshev, events, fmt.Errorf("core: chebyshev eigensolve: %w", err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: chebyshev eigensolve: %w", err)
		}
		if opt.NoFallback {
			return nil, SolverChebyshev, events, firstErr
		}
		if !perturb {
			events = recordFallback(ctx, events, "retry",
				fmt.Sprintf("chebyshev failed (%v); retrying with a perturbed start seed", err))
		} else {
			events = append(events, fmt.Sprintf("chebyshev failed (%v)", err))
		}
	}

	// Dense terminal step for this Laplacian kind, size permitting.
	if opt.DenseFallbackCap >= 0 && g.N() <= opt.DenseFallbackCap {
		events = recordFallback(ctx, events, "dense",
			"both chebyshev attempts failed; falling back to the dense solver")
		lambda, err := denseSpectrum(ctx, g, kind, h, sp)
		if err == nil {
			if ferr := linalg.CheckFinite("dense eigensolve output", lambda); ferr != nil {
				obs.IncCtx(ctx, "core.fallback.nonfinite")
				return nil, SolverDense, events, errors.Join(firstErr, ferr)
			}
			return lambda, SolverDense, events, nil
		}
		return nil, SolverDense, events, errors.Join(firstErr, err)
	}
	return nil, SolverChebyshev, events, firstErr
}

// attemptSolve runs one Chebyshev eigensolve with a freshly wrapped
// operator and, when perturb is set, a perturbed deterministic start seed.
func attemptSolve(ctx context.Context, L *linalg.CSR, c float64, h int, perturb bool, opt Options, sp *obs.Span) ([]float64, error) {
	var op linalg.Operator = L
	if opt.WrapOperator != nil {
		op = opt.WrapOperator(op)
	}
	var cnt *linalg.CountingOperator
	if obs.Enabled() {
		cnt = &linalg.CountingOperator{A: op, Scope: obs.FromContext(ctx)}
		op = cnt
	}
	esp := sp.Child("eigensolve")
	esp.SetStr("solver", SolverChebyshev.String())
	co := opt.Chebyshev
	if perturb {
		co = perturbCheb(co)
	}
	lambda, err := linalg.ChebFilteredSmallestContext(ctx, op, c, h, co)
	if cnt != nil {
		obs.AddCtx(ctx, "linalg.matvecs", cnt.Count())
	}
	esp.End()
	return lambda, err
}

// denseSpectrum computes the h smallest eigenvalues with the dense solver.
func denseSpectrum(ctx context.Context, g *graph.Graph, kind laplacian.Kind, h int, sp *obs.Span) ([]float64, error) {
	lsp := sp.Child("laplacian")
	L := laplacian.BuildDense(g, kind)
	lsp.End()
	esp := sp.Child("eigensolve")
	esp.SetStr("solver", "dense")
	vals, err := linalg.SymEigValuesContext(ctx, L)
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("core: dense eigensolve: %w", err)
	}
	// The dense path applies no operator products; register the matvec
	// counter anyway so the metric exists for every solver choice.
	obs.AddCtx(ctx, "linalg.matvecs", 0)
	if len(vals) > h {
		vals = vals[:h]
	}
	return vals, nil
}

// recordFallback appends a degradation event and bumps its counters,
// attributed to ctx's telemetry scope.
func recordFallback(ctx context.Context, events []string, kindName, msg string) []string {
	obs.IncCtx(ctx, "core.fallback."+kindName)
	obs.IncCtx(ctx, "core.fallback.total")
	return append(events, msg)
}

// isInterrupt reports whether err stems from context cancellation or an
// expired deadline — failures the escalation chain must not mask.
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// perturbCheb copies o with its start seed advanced by an LCG step, so a
// retry explores a genuinely different start block while the whole
// escalation chain stays reproducible.
func perturbCheb(o *linalg.ChebOptions) *linalg.ChebOptions {
	var out linalg.ChebOptions
	if o != nil {
		out = *o
	}
	s := out.Seed
	if s == 0 {
		s = 1 // the solver treats 0 as "use the default"
	}
	s = s*6364136223846793005 + 1442695040888963407
	if s == 0 {
		s = 7
	}
	out.Seed = s
	return &out
}

// BoundFromEigenvalues evaluates the Theorem 4/5/6 bound directly from an
// ascending prefix lambda of a Laplacian spectrum, for a graph with n
// vertices, fast memory M, and p processors. divisor is 1 for the
// out-degree-normalized Laplacian (Theorem 4) and max_v d_out(v) for the
// original Laplacian (Theorem 5). It returns the clamped bound
// max(0, max_k ⌊n/(kp)⌋·Σ_{i≤k}λ_i/divisor − 2kM), the maximizing k (0 if
// the raw maximum is non-positive), and the per-k values.
//
// This entry point is what closed-form analyses use: feed it an analytic
// spectrum (e.g. the hypercube's or the butterfly's) instead of a computed
// one. It never panics and never returns non-finite values: NaN/Inf
// eigenvalues are treated as 0 (keeping the lower bound sound), a
// non-positive or non-finite divisor is treated as 1, and overflowing per-k
// values saturate at ±math.MaxFloat64.
func BoundFromEigenvalues(lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	return boundFromEigenvalues(nil, lambda, n, M, p, divisor)
}

// BoundFromEigenvaluesContext is BoundFromEigenvalues with the per-k
// timing histogram attributed to ctx's telemetry scope.
func BoundFromEigenvaluesContext(ctx context.Context, lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	return boundFromEigenvalues(obs.FromContext(ctx), lambda, n, M, p, divisor)
}

func boundFromEigenvalues(sc *obs.Scope, lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	if p < 1 {
		p = 1
	}
	if divisor <= 0 || math.IsNaN(divisor) || math.IsInf(divisor, 0) {
		divisor = 1
	}
	perK = make([]float64, len(lambda))
	sum := 0.0
	// Per-k evaluation timings feed the "core.boundk_ns" histogram when the
	// observability layer is on; each evaluation is a handful of flops, so
	// the clock reads are gated rather than unconditional.
	timed := obs.Enabled()
	for i, l := range lambda {
		var t0 time.Time
		if timed {
			t0 = obs.Now()
		}
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			l = 0 // eigenvalues of a PSD Laplacian; drop round-off and corruption
		}
		sum += l
		if math.IsInf(sum, 1) {
			sum = math.MaxFloat64 // saturate rather than poison every later k
		}
		k := i + 1
		// ⌊n/(kp)⌋ via nested floor division: identical result for n ≥ 0,
		// and k*p cannot overflow.
		seg := (n / k) / p
		v := float64(seg)*sum/divisor - 2*float64(k)*float64(M)
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = math.MaxFloat64
		case math.IsInf(v, -1):
			v = -math.MaxFloat64
		}
		perK[i] = v
		if timed {
			sc.ObserveHist("core.boundk_ns", obs.Since(t0).Nanoseconds())
		}
	}
	raw := rawMax(perK)
	bound = raw
	if bound < 0 {
		bound = 0
	}
	bestK = 0
	if raw > 0 {
		for i, v := range perK {
			//lint:ignore float-eq raw was copied out of perK above, so bit equality recovers the argmax exactly
			if v == raw {
				bestK = i + 1
				break
			}
		}
	}
	return bound, bestK, perK
}

func rawMax(perK []float64) float64 {
	if len(perK) == 0 {
		return 0
	}
	best := perK[0]
	for _, v := range perK[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
