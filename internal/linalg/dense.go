package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"graphio/internal/obs"
)

// Dense is a square matrix in row-major order.
type Dense struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewDense allocates a zero n×n matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.N : (i+1)*m.N] }

// rows returns the row slices of m, aliasing its storage.
func (m *Dense) rows() [][]float64 {
	r := make([][]float64, m.N)
	for i := range r {
		r[i] = m.Row(i)
	}
	return r
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// MatVec computes dst = m * src.
func (m *Dense) MatVec(dst, src []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for j, rv := range row {
			s += rv * src[j]
		}
		dst[i] = s
	}
}

// Dim implements Operator.
func (m *Dense) Dim() int { return m.N }

// IsSymmetric reports whether m is symmetric to within tol (absolute).
func (m *Dense) IsSymmetric(tol float64) bool {
	n := m.N
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// SymEig computes the full eigendecomposition of the symmetric matrix a.
// It returns the eigenvalues in ascending order; if wantV is true, vecs is
// the matrix whose column i is the (orthonormal) eigenvector for vals[i],
// otherwise vecs is nil. The input matrix is not modified.
//
// The implementation is the classic EISPACK pair tred2 (Householder
// reduction to tridiagonal form) + tql2 (QL with implicit Wilkinson shifts),
// ported from scratch. Cost is O(n^3).
func SymEig(a *Dense, wantV bool) (vals []float64, vecs *Dense, err error) {
	//lint:ignore ctx-flow SymEig has no caller ctx; its iterative callers check theirs once per sweep around this O(b³) Rayleigh–Ritz solve
	vals, vecs, _, err = symEig(context.Background(), a, wantV)
	return vals, vecs, err
}

// symEig is SymEig plus the QL iteration count, so top-level entry points
// can report solver effort without inner Rayleigh-Ritz solves (Chebyshev
// calls SymEig every sweep) polluting the counters. ctx is polled once per
// Householder step and again before the QL iteration.
func symEig(ctx context.Context, a *Dense, wantV bool) (vals []float64, vecs *Dense, iters int, err error) {
	n := a.N
	if n == 0 {
		return nil, nil, 0, nil
	}
	work := a.Clone()
	rows := work.rows()
	d := make([]float64, n)
	e := make([]float64, n)
	if err := tred2(ctx, rows, d, e, wantV); err != nil {
		return nil, nil, 0, err
	}
	if err := ctxErr(ctx, "dense"); err != nil {
		return nil, nil, 0, err
	}
	var z [][]float64
	if wantV {
		z = rows
	}
	iters, err = tql2(d, e, z)
	if err != nil {
		return nil, nil, iters, err
	}
	sortEigen(d, z)
	if wantV {
		vecs = work
	}
	return d, vecs, iters, nil
}

// SymEigValues returns only the eigenvalues of the symmetric matrix a, in
// ascending order. As the dense path's top-level eigensolve it reports the
// QL sweep count to the observability layer.
func SymEigValues(a *Dense) ([]float64, error) {
	return SymEigValuesContext(context.Background(), a)
}

// SymEigValuesContext is SymEigValues with its solver counters attributed
// to ctx's telemetry scope. It returns ctx's error, wrapped, if ctx is done
// at a Householder step or before the QL iteration.
func SymEigValuesContext(ctx context.Context, a *Dense) ([]float64, error) {
	vals, _, iters, err := symEig(ctx, a, false)
	if err == nil && obs.Enabled() {
		obs.AddCtx(ctx, "linalg.eigensolver.iterations", int64(iters))
		obs.AddCtx(ctx, "linalg.dense.ql_iters", int64(iters))
	}
	return vals, err
}

// tred2 reduces the symmetric matrix a (given as row slices) to tridiagonal
// form by Householder similarity transformations. It reads and updates only
// the lower triangle a[j][k], k ≤ j, in row-contiguous passes; with wantV
// the upper triangle holds u/h for each Householder vector u. On return d
// holds the diagonal and e[1..n-1] the subdiagonal (e[0] = 0). If wantV, a
// is overwritten with the accumulated orthogonal transformation Q such that
// Q^T A Q = T; otherwise a's contents are destroyed. Every sum adds the same
// terms in the same order as the column-walking EISPACK form, so d, e and Q
// are bit-identical to it. ctx is polled once per Householder step (and
// once per row of the Q accumulation).
func tred2(ctx context.Context, a [][]float64, d, e []float64, wantV bool) error {
	n := len(a)
	for i := n - 1; i >= 1; i-- {
		if err := ctxErr(ctx, "dense"); err != nil {
			return err
		}
		l := i - 1
		u := a[i][:i]
		var h, scale float64
		if l > 0 {
			for _, v := range u {
				scale += math.Abs(v)
			}
			if EqZero(scale) {
				e[i] = u[l]
			} else {
				for k := range u {
					u[k] /= scale
					h += u[k] * u[k]
				}
				f := u[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				u[l] = f - g
				// e = A·u in one ascending pass over the rows: row j gathers
				// its k ≤ j terms into e[j], then scatters a[j][k]·u[j] into
				// each e[k], k < j, whose own gather came first. So e[j] sums
				// the k ≤ j terms, then the k > j terms in ascending k.
				for j := 0; j <= l; j++ {
					row := a[j][:j+1]
					ej := e[:j]
					uj := u[j]
					g = 0
					for k, v := range row[:j] {
						g += v * u[k]
						ej[k] += v * uj
					}
					e[j] = g + row[j]*uj
				}
				f = 0
				for j := 0; j <= l; j++ {
					if wantV {
						a[j][i] = u[j] / h
					}
					e[j] /= h
					f += e[j] * u[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = u[j]
					g = e[j] - hh*f
					e[j] = g
					row := a[j][:j+1]
					for k := range row {
						row[k] -= f*e[k] + g*u[k]
					}
				}
			}
		} else {
			e[i] = u[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	if !wantV {
		for i := range d {
			d[i] = a[i][i]
		}
		return nil
	}
	// Accumulate Q in row passes: g[j] = Σ_{k<i} a[i][k]·a[k][j] adds over
	// rows k in ascending order, the column form's order, and every g[j] is
	// formed before any column is updated, as the column form's g was.
	buf := make([]float64, n)
	for i := 0; i < n; i++ {
		if err := ctxErr(ctx, "dense"); err != nil {
			return err
		}
		if !EqZero(d[i]) {
			g := buf[:i]
			clear(g)
			for k, aik := range a[i][:i] {
				for j, v := range a[k][:i] {
					g[j] += aik * v
				}
			}
			for k := 0; k < i; k++ {
				aki := a[k][i]
				row := a[k][:i]
				for j := range row {
					row[j] -= g[j] * aki
				}
			}
		}
		d[i] = a[i][i]
		a[i][i] = 1
		for j := 0; j < i; j++ {
			a[j][i] = 0
			a[i][j] = 0
		}
	}
	return nil
}

// tql2 computes the eigenvalues (and, if z is non-nil, eigenvectors) of a
// symmetric tridiagonal matrix with diagonal d and subdiagonal e[1..n-1],
// using the QL algorithm with implicit shifts. On return d holds the
// eigenvalues (unsorted) and the columns of z the eigenvectors. z must be
// initialized to the identity (for a tridiagonal input) or to the
// tridiagonalizing transformation (as produced by tred2). Returns the
// total implicit-shift QL iteration count across eigenvalues.
func tql2(d, e []float64, z [][]float64) (int, error) {
	n := len(d)
	total := 0
	if n == 0 {
		return 0, nil
	}
	const eps = 2.220446049250313e-16
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			total++
			if iter > 60 {
				return total, fmt.Errorf("linalg: tql2 failed to converge at eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if EqZero(r) {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < n; k++ {
						f = z[k][i+1]
						z[k][i+1] = s*z[k][i] + c*f
						z[k][i] = c*z[k][i] - s*f
					}
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return total, nil
}

// TridiagEig computes the eigendecomposition of the symmetric tridiagonal
// matrix with diagonal diag and subdiagonal sub (len(sub) == len(diag)-1).
// Eigenvalues are returned in ascending order; if wantV is true, column i of
// vecs is the unit eigenvector for vals[i]. Chebyshev's pilot Lanczos run
// uses it for its small inner solve.
func TridiagEig(diag, sub []float64, wantV bool) (vals []float64, vecs *Dense, err error) {
	n := len(diag)
	if n == 0 {
		return nil, nil, nil
	}
	if len(sub) != n-1 {
		return nil, nil, errors.New("linalg: TridiagEig: len(sub) must be len(diag)-1")
	}
	d := make([]float64, n)
	copy(d, diag)
	e := make([]float64, n)
	copy(e[1:], sub)
	var z [][]float64
	var zm *Dense
	if wantV {
		zm = NewDense(n)
		z = zm.rows()
		for i, row := range z {
			row[i] = 1
		}
	}
	if _, err := tql2(d, e, z); err != nil {
		return nil, nil, err
	}
	sortEigen(d, z)
	return d, zm, nil
}

// sortEigen sorts d ascending with a selection sort, swapping the columns
// of z (when non-nil) alongside; n^2 swaps are negligible next to the n^3
// factorization.
func sortEigen(d []float64, z [][]float64) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			for _, row := range z {
				row[i], row[k] = row[k], row[i]
			}
		}
	}
}
