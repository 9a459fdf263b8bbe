package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestDotNorm(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Errorf("Dot = %g", Dot(x, x))
	}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %g", Norm2(x))
	}
	if Norm2(nil) != 0 {
		t.Errorf("Norm2(nil) = %g", Norm2(nil))
	}
}

func TestNorm2AvoidsOverflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(x); math.Abs(got-want)/want > 1e-14 {
		t.Errorf("Norm2 overflow handling: got %g want %g", got, want)
	}
}

func TestAxpyScaleNormalize(t *testing.T) {
	y := []float64{1, 2}
	Axpy(2, []float64{10, 20}, y)
	if y[0] != 21 || y[1] != 42 {
		t.Errorf("Axpy: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 10.5 || y[1] != 21 {
		t.Errorf("Scale: %v", y)
	}
	n := Normalize(y)
	if math.Abs(Norm2(y)-1) > 1e-14 || n == 0 {
		t.Errorf("Normalize: %v (norm %g)", y, n)
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Error("Normalize of zero vector should return 0")
	}
}

func TestOrthogonalizeAgainst(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40
	// Build an orthonormal basis of 5 random vectors via Gram-Schmidt.
	var basis [][]float64
	for len(basis) < 5 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		OrthogonalizeAgainst(v, basis)
		if Normalize(v) > 1e-8 {
			basis = append(basis, v)
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	OrthogonalizeAgainst(x, basis)
	for i, b := range basis {
		if d := math.Abs(Dot(x, b)); d > 1e-12 {
			t.Errorf("residual projection on basis[%d]: %g", i, d)
		}
	}
}
