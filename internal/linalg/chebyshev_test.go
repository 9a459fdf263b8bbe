package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestChebPathSmallest(t *testing.T) {
	for _, n := range []int{5, 40, 150} {
		m := pathCSR(n)
		h := 6
		if h > n {
			h = n
		}
		got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := pathEigenvalues(n)[:h]
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Errorf("n=%d: error %g: got %v want %v", n, d, got, want)
		}
	}
}

func TestChebRecoversMultiplicity(t *testing.T) {
	// Complete graph K_8: eigenvalue 8 with multiplicity 7. The block
	// method must report every copy.
	n := 8
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, float64(n - 1)})
		for j := 0; j < n; j++ {
			if i != j {
				tr = append(tr, Triplet{i, j, -1})
			}
		}
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 8, 8, 8, 8}
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestChebDisconnectedZeros(t *testing.T) {
	// Two disjoint paths: two exact zero eigenvalues.
	n := 10
	var tr []Triplet
	addEdge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	for i := 0; i < 4; i++ {
		addEdge(i, i+1)
	}
	for i := 5; i < 9; i++ {
		addEdge(i, i+1)
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-8 || math.Abs(got[1]) > 1e-8 {
		t.Errorf("want two zero eigenvalues, got %v", got)
	}
	if got[2] < 1e-3 {
		t.Errorf("third eigenvalue should be positive: %v", got)
	}
}

func TestChebMatchesDenseOnRandomLaplacians(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(60)
		var tr []Triplet
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					w := 0.25 + rng.Float64()
					tr = append(tr, Triplet{u, u, w}, Triplet{v, v, w},
						Triplet{u, v, -w}, Triplet{v, u, -w})
				}
			}
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		h := 8
		want, err := SymEigValues(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(got, want[:h]); d > 1e-6 {
			t.Errorf("trial %d (n=%d): error %g\n got %v\nwant %v", trial, n, d, got, want[:h])
		}
	}
}

func TestChebFullSpectrumAndOversizedH(t *testing.T) {
	m := pathCSR(12)
	got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, pathEigenvalues(12)); d > 1e-7 {
		t.Errorf("full spectrum error %g", d)
	}
	got, err = ChebFilteredSmallest(m, m.GershgorinUpper(), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("h > n should clamp: len=%d", len(got))
	}
}

func TestSolverErrorsOnBadH(t *testing.T) {
	m := pathCSR(3)
	for _, h := range []int{0, -1} {
		if _, err := ChebFilteredSmallest(m, 4, h, nil); err == nil {
			t.Errorf("Chebyshev accepted h=%d", h)
		}
	}
}

func TestChebValidation(t *testing.T) {
	if out, err := ChebFilteredSmallest(emptyOperator{}, 1, 3, nil); err != nil || out != nil {
		t.Error("empty operator should return nil, nil")
	}
}

type emptyOperator struct{}

func (emptyOperator) Dim() int              { return 0 }
func (emptyOperator) MatVec(_, _ []float64) {}

func TestChebSoundPaddingOnSweepExhaustion(t *testing.T) {
	// Force exhaustion with MaxIter=1: the result must be a sound
	// underestimate (each value ≤ the true one) or an explicit error.
	m := pathCSR(60)
	want := pathEigenvalues(60)
	got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), 10, &ChebOptions{MaxIter: 1, Degree: 4})
	if err != nil {
		return // explicit failure is acceptable
	}
	for i := range got {
		if got[i] > want[i]+1e-6 {
			t.Fatalf("padded value %d overestimates: %g > %g", i, got[i], want[i])
		}
	}
}

func TestChebTorusMatchesClosedForm(t *testing.T) {
	// The s×s torus (cycle × cycle): moderate size, heavy multiplicity, and
	// the closed-form spectrum 4 − 2cos(2πa/s) − 2cos(2πb/s), 0 ≤ a, b < s.
	side := 18
	n := side * side
	var tr []Triplet
	addEdge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	id := func(i, j int) int { return ((i+side)%side)*side + (j+side)%side }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			addEdge(id(i, j), id(i+1, j))
			addEdge(id(i, j), id(i, j+1))
		}
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 0, n)
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			want = append(want, 4-2*math.Cos(2*math.Pi*float64(a)/float64(side))-2*math.Cos(2*math.Pi*float64(b)/float64(side)))
		}
	}
	sort.Float64s(want)
	h := 20
	got, err := ChebFilteredSmallest(m, m.GershgorinUpper(), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want[:h]); d > 1e-6 {
		t.Errorf("Chebyshev vs closed form differ by %g\n got %v\nwant %v", d, got, want[:h])
	}
}

// The tests below keep the names they had when they covered the retired
// Lanczos and deflated power-iteration solvers, with the same inputs and
// exact oracles. They now run Chebyshev filtering from retrySeed, the start
// seed of the escalation chain's second rung (core's perturbCheb applied to
// the default seed 1) — the run that took Lanczos's place in that chain — so
// they also check that the answers do not depend on the start block.
const retrySeed = 1*6364136223846793005 + 1442695040888963407

func retryCheb(m *CSR, h int) ([]float64, error) {
	return ChebFilteredSmallest(m, m.GershgorinUpper(), h, &ChebOptions{Seed: retrySeed})
}

func TestLanczosPathSmallest(t *testing.T) {
	for _, n := range []int{5, 40, 150} {
		m := pathCSR(n)
		h := 6
		if h > n {
			h = n
		}
		got, err := retryCheb(m, h)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := pathEigenvalues(n)[:h]
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Errorf("n=%d: error %g: got %v want %v", n, d, got, want)
		}
	}
}

func TestLanczosRecoversMultiplicity(t *testing.T) {
	// K_8: eigenvalues 0, then 8 with multiplicity 7; all requested copies
	// must be reported.
	n := 8
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, float64(n - 1)})
		for j := 0; j < n; j++ {
			if i != j {
				tr = append(tr, Triplet{i, j, -1})
			}
		}
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := retryCheb(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 8, 8, 8, 8}
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("complete-graph eigenvalues: got %v, want %v", got, want)
	}
}

func TestLanczosDisconnectedZeros(t *testing.T) {
	// Two disjoint paths: the Laplacian has a two-dimensional kernel.
	n := 10
	var tr []Triplet
	addEdge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	for i := 0; i < 4; i++ {
		addEdge(i, i+1)
	}
	for i := 5; i < 9; i++ {
		addEdge(i, i+1)
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := retryCheb(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-8 || math.Abs(got[1]) > 1e-8 {
		t.Errorf("disconnected graph should have two zero eigenvalues, got %v", got)
	}
	if got[2] < 1e-3 {
		t.Errorf("third eigenvalue should be positive, got %v", got)
	}
}

func TestLanczosFullSpectrumSmallMatrix(t *testing.T) {
	// h = n: the entire spectrum.
	n := 12
	m := pathCSR(n)
	got, err := retryCheb(m, n)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, pathEigenvalues(n)); d > 1e-7 {
		t.Errorf("full spectrum error %g", d)
	}
}

func TestLanczosHLargerThanN(t *testing.T) {
	m := pathCSR(4)
	got, err := retryCheb(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len=%d want 4", len(got))
	}
	if d := maxAbsDiff(got, pathEigenvalues(4)); d > 1e-7 {
		t.Errorf("clamped spectrum error %g", d)
	}
}

func TestLanczosMatchesDenseOnRandomLaplacians(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(60)
		var tr []Triplet
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					w := 0.25 + rng.Float64()
					tr = append(tr, Triplet{u, u, w}, Triplet{v, v, w},
						Triplet{u, v, -w}, Triplet{v, u, -w})
				}
			}
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		h := 8
		want, err := SymEigValues(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		got, err := retryCheb(m, h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(got, want[:h]); d > 1e-6 {
			t.Errorf("trial %d (n=%d): Chebyshev vs dense error %g\n got %v\nwant %v",
				trial, n, d, got, want[:h])
		}
	}
}

func TestPowerMatchesDense(t *testing.T) {
	n := 30
	m := pathCSR(n)
	h := 4
	got, err := retryCheb(m, h)
	if err != nil {
		t.Fatal(err)
	}
	want := pathEigenvalues(n)[:h]
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("error %g: got %v want %v", d, got, want)
	}
}

func TestPowerRecoversMultiplicity(t *testing.T) {
	// Star K_{1,5}: Laplacian eigenvalues 0, 1 (multiplicity 4), 6.
	n := 6
	var tr []Triplet
	for leaf := 1; leaf < n; leaf++ {
		tr = append(tr, Triplet{0, 0, 1}, Triplet{leaf, leaf, 1},
			Triplet{0, leaf, -1}, Triplet{leaf, 0, -1})
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := retryCheb(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 1, 1, 1}
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("star eigenvalues: got %v want %v", got, want)
	}
}
