package linalg

import (
	"math/rand"
	"testing"
)

func pathCSR(n int) *CSR {
	var tr []Triplet
	for i := 0; i < n-1; i++ {
		tr = append(tr,
			Triplet{i, i, 1}, Triplet{i + 1, i + 1, 1},
			Triplet{i, i + 1, -1}, Triplet{i + 1, i, -1})
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		panic(err)
	}
	return m
}

func TestCSRFromTripletsMergesDuplicates(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ=%d want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 0) != -1 || m.At(0, 1) != 0 {
		t.Errorf("entries: %g %g %g", m.At(0, 0), m.At(1, 0), m.At(0, 1))
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSRFromTriplets(2, []Triplet{{0, 2, 1}}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := NewCSRFromTriplets(2, []Triplet{{-1, 0, 1}}); err == nil {
		t.Error("negative row accepted")
	}
}

func TestCSRMatVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		var tr []Triplet
		for k := 0; k < rng.Intn(4*n); k++ {
			tr = append(tr, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		d := m.ToDense()
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		m.MatVec(got, src)
		d.MatVec(want, src)
		if dd := maxAbsDiff(got, want); dd > 1e-12 {
			t.Errorf("trial %d: sparse vs dense matvec differ by %g", trial, dd)
		}
	}
}

func TestGershgorinBoundsSpectrum(t *testing.T) {
	for _, n := range []int{2, 5, 20} {
		m := pathCSR(n)
		c := m.GershgorinUpper()
		vals, err := SymEigValues(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		if vals[n-1] > c+1e-12 {
			t.Errorf("n=%d: λmax=%g exceeds Gershgorin bound %g", n, vals[n-1], c)
		}
	}
}

func TestShiftedNeg(t *testing.T) {
	m := pathCSR(3)
	s := &ShiftedNeg{A: m, C: 5}
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	s.MatVec(dst, src)
	want := make([]float64, 3)
	m.MatVec(want, src)
	for i := range want {
		want[i] = 5*src[i] - want[i]
	}
	if maxAbsDiff(dst, want) > 1e-14 {
		t.Errorf("ShiftedNeg: got %v want %v", dst, want)
	}
}
