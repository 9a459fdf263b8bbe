package linalg_test

// Error-path coverage for the eigensolvers, driven through
// internal/faultinject: forced non-convergence, NaN poisoning, and
// cancellation/deadline handling. The happy paths live in the in-package
// solver tests; these tests are external (package linalg_test) because
// faultinject imports linalg.

import (
	"context"
	"errors"
	"testing"
	"time"

	"graphio/internal/faultinject"
	"graphio/internal/linalg"
)

// pathLaplacian builds the n-vertex path-graph Laplacian, a PSD matrix with
// a well-understood spectrum that the solvers handle easily when healthy.
func pathLaplacian(t *testing.T, n int) *linalg.CSR {
	t.Helper()
	var tr []linalg.Triplet
	for i := 0; i < n-1; i++ {
		tr = append(tr,
			linalg.Triplet{Row: i, Col: i, Val: 1},
			linalg.Triplet{Row: i + 1, Col: i + 1, Val: 1},
			linalg.Triplet{Row: i, Col: i + 1, Val: -1},
			linalg.Triplet{Row: i + 1, Col: i, Val: -1})
	}
	m, err := linalg.NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSolversReportNonConvergenceUnderNoise(t *testing.T) {
	cases := []struct {
		name   string
		solver string
		m      *linalg.CSR
		run    func(op linalg.Operator, c float64) ([]float64, error)
	}{
		{"chebyshev", "Chebyshev", pathLaplacian(t, 40), func(op linalg.Operator, c float64) ([]float64, error) {
			return linalg.ChebFilteredSmallest(op, c, 4, &linalg.ChebOptions{MaxIter: 3, Degree: 6})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Additive noise far above every residual tolerance: the solver
			// keeps producing finite garbage and must report non-convergence,
			// with diagnostics attached, instead of hanging or returning a
			// fabricated spectrum.
			inj := &faultinject.Op{A: tc.m, NoiseFrom: 1, NoiseAmp: 5}
			vals, err := tc.run(inj, tc.m.GershgorinUpper())
			if err == nil {
				t.Fatalf("solve under noise succeeded with %v", vals)
			}
			var nc *linalg.NotConvergedError
			if !errors.As(err, &nc) {
				t.Fatalf("error = %v (%T), want *NotConvergedError", err, err)
			}
			if nc.Solver != tc.solver {
				t.Errorf("Solver = %q, want %q", nc.Solver, tc.solver)
			}
			if nc.Requested != 4 {
				t.Errorf("Requested = %d, want 4", nc.Requested)
			}
			if inj.Faults() == 0 {
				t.Error("injector reports zero faulted matvecs")
			}
			if nc.Reason == "" || nc.Error() == "" {
				t.Error("empty diagnostics")
			}
		})
	}
}

func TestSolversDetectNaNPoisoning(t *testing.T) {
	m := pathLaplacian(t, 40)
	c := m.GershgorinUpper()
	cases := []struct {
		name string
		run  func(op linalg.Operator) ([]float64, error)
	}{
		{"chebyshev", func(op linalg.Operator) ([]float64, error) {
			return linalg.ChebFilteredSmallest(op, c, 4, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := &faultinject.Op{A: m, NaNFrom: 1}
			vals, err := tc.run(inj)
			if err == nil {
				t.Fatalf("solve on NaN-poisoned operator succeeded with %v", vals)
			}
			var nf *linalg.NonFiniteError
			if !errors.As(err, &nf) {
				t.Fatalf("error = %v (%T), want *NonFiniteError", err, err)
			}
			if nf.Where == "" {
				t.Error("NonFiniteError.Where is empty")
			}
		})
	}
}

// TestChebFilterPoisonSurfacesAtOrthonormalization closes the fault window
// inside the first filter pass: the pilot's 30 mat-vecs and the filter's
// first 10 return NaN, every later one is clean. The poisoned columns must
// fail the solve typed at orthonormalization, not be swapped for random
// vectors that the clean Rayleigh-Ritz mat-vecs then turn into a
// plausible spectrum.
func TestChebFilterPoisonSurfacesAtOrthonormalization(t *testing.T) {
	m := pathLaplacian(t, 30)
	inj := &faultinject.Op{A: m, NaNFrom: 1, Until: 40}
	vals, err := linalg.ChebFilteredSmallest(inj, m.GershgorinUpper(), 3, nil)
	if err == nil {
		t.Fatalf("solve after %d poisoned mat-vecs succeeded with %v", inj.Faults(), vals)
	}
	var nf *linalg.NonFiniteError
	if !errors.As(err, &nf) {
		t.Fatalf("error = %v (%T), want *NonFiniteError", err, err)
	}
	if nf.Where != "Chebyshev orthonormalization" {
		t.Errorf("NonFiniteError.Where = %q, want %q", nf.Where, "Chebyshev orthonormalization")
	}
}

func TestSolversHonorCancelledContext(t *testing.T) {
	m := pathLaplacian(t, 40)
	c := m.GershgorinUpper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		run  func() ([]float64, error)
	}{
		{"chebyshev", func() ([]float64, error) {
			return linalg.ChebFilteredSmallestContext(ctx, m, c, 4, nil)
		}},
		{"dense", func() ([]float64, error) {
			return linalg.SymEigValuesContext(ctx, m.ToDense())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := tc.run()
			if err == nil {
				t.Fatalf("solve with cancelled ctx succeeded with %v", vals)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled in chain", err)
			}
		})
	}
}

func TestSolversHitDeadlineDuringStalledMatvecs(t *testing.T) {
	m := pathLaplacian(t, 120)
	c := m.GershgorinUpper()
	cases := []struct {
		name string
		run  func(ctx context.Context, op linalg.Operator) ([]float64, error)
	}{
		{"chebyshev", func(ctx context.Context, op linalg.Operator) ([]float64, error) {
			return linalg.ChebFilteredSmallestContext(ctx, op, c, 6, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every matvec stalls 2ms; the deadline lands mid-solve and the
			// solver must notice at its next iteration boundary rather than
			// grinding through its full budget.
			inj := &faultinject.Op{A: m, StallFrom: 1, Stall: 2 * time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			vals, err := tc.run(ctx, inj)
			if err == nil {
				t.Fatalf("stalled solve beat a 30ms deadline with %v", vals)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error = %v, want context.DeadlineExceeded in chain", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("solver took %v to notice an expired deadline", elapsed)
			}
		})
	}
}

func TestTransientFaultWindowClears(t *testing.T) {
	// A fault window that closes (Until) lets the same wrapped operator fail
	// early and succeed later — the shape the escalation chain's retry path
	// depends on.
	m := pathLaplacian(t, 30)
	c := m.GershgorinUpper()
	short := &linalg.ChebOptions{MaxIter: 1, Degree: 4}
	// Size the window to one short solve: count its matvecs under a fault
	// that never closes (the count is deterministic), then replay it on a
	// fresh injector whose window ends exactly there.
	probe := &faultinject.Op{A: m, NaNFrom: 1}
	if _, err := linalg.ChebFilteredSmallest(probe, c, 3, short); err == nil {
		t.Fatal("solve on a NaN-poisoned operator succeeded")
	}
	inj := &faultinject.Op{A: m, NaNFrom: 1, Until: probe.Calls()}
	if _, err := linalg.ChebFilteredSmallest(inj, c, 3, short); err == nil {
		t.Fatal("solve inside the fault window succeeded")
	}
	vals, err := linalg.ChebFilteredSmallest(inj, c, 3, nil)
	if err != nil {
		t.Fatalf("solve after the fault window cleared: %v", err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d eigenvalues, want 3", len(vals))
	}
	if inj.Calls() <= inj.Faults() {
		t.Errorf("Calls() = %d, Faults() = %d: expected clean calls after the window", inj.Calls(), inj.Faults())
	}
}
