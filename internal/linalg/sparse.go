package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Operator is a symmetric linear operator on R^n, the abstraction both
// eigensolvers work against.
type Operator interface {
	Dim() int
	// MatVec computes dst = A*src. dst and src never alias.
	MatVec(dst, src []float64)
}

// Triplet is a coordinate-format matrix entry used to assemble CSR matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row square matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NewCSRFromTriplets assembles an n×n CSR matrix from coordinate entries.
// Duplicate (row, col) entries are summed. Entries are validated against n.
func NewCSRFromTriplets(n int, entries []Triplet) (*CSR, error) {
	for _, t := range entries {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) outside %d×%d matrix", t.Row, t.Col, n, n)
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	// Merge duplicates.
	w := 0
	for i := 0; i < len(sorted); i++ {
		if w > 0 && sorted[w-1].Row == sorted[i].Row && sorted[w-1].Col == sorted[i].Col {
			sorted[w-1].Val += sorted[i].Val
			continue
		}
		sorted[w] = sorted[i]
		w++
	}
	sorted = sorted[:w]

	m := &CSR{
		N:      n,
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, len(sorted)),
		Val:    make([]float64, len(sorted)),
	}
	for _, t := range sorted {
		m.RowPtr[t.Row+1]++
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	next := make([]int32, n)
	for _, t := range sorted {
		p := m.RowPtr[t.Row] + next[t.Row]
		m.Col[p] = int32(t.Col)
		m.Val[p] = t.Val
		next[t.Row]++
	}
	return m, nil
}

// Dim implements Operator.
func (m *CSR) Dim() int { return m.N }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i, j) by binary search over row i. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(m.Col[mid]) < j:
			lo = mid + 1
		case int(m.Col[mid]) > j:
			hi = mid
		default:
			return m.Val[mid]
		}
	}
	return 0
}

// MatVec computes dst = m * src.
func (m *CSR) MatVec(dst, src []float64) {
	for i := 0; i < m.N; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * src[m.Col[p]]
		}
		dst[i] = s
	}
}

// ToDense expands the matrix to dense form (for tests and small problems).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.N)
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d.Set(i, int(m.Col[p]), m.Val[p])
		}
	}
	return d
}

// GershgorinUpper returns an upper bound on the largest eigenvalue of the
// symmetric matrix m: max_i (a_ii + Σ_{j≠i} |a_ij|).
func (m *CSR) GershgorinUpper() float64 {
	var best float64
	for i := 0; i < m.N; i++ {
		var diag, radius float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.Col[p]) == i {
				diag = m.Val[p]
			} else {
				radius += math.Abs(m.Val[p])
			}
		}
		if v := diag + radius; v > best || i == 0 {
			best = v
		}
	}
	return best
}

// ShiftedNeg is the operator c*I − A for a symmetric operator A. Power
// iteration converges to the largest eigenvalues; running it on ShiftedNeg
// with c ≥ λmax(A) turns the *smallest* eigenvalues of a PSD A into the
// largest of the shifted operator (the partitioner's Fiedler loop does this).
type ShiftedNeg struct {
	A Operator
	C float64
}

// Dim implements Operator.
func (s *ShiftedNeg) Dim() int { return s.A.Dim() }

// MatVec computes dst = c*src − A*src.
func (s *ShiftedNeg) MatVec(dst, src []float64) {
	s.A.MatVec(dst, src)
	for i := range dst {
		dst[i] = s.C*src[i] - dst[i]
	}
}
