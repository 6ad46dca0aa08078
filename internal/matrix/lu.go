package matrix

import (
	"fmt"
	"math"
)

// LU holds the LU decomposition with partial pivoting of a square matrix:
// P·A = L·U, where L is unit lower triangular and U is upper triangular,
// both packed into lu, and piv records the row permutation.
//
// An LU value doubles as a reusable factorization workspace: NewLU returns an
// empty one and (*LU).Factorize recomputes the decomposition in place,
// reusing the internal buffers whenever they are large enough, so one
// workspace serves matrices of mixed sizes. This is the allocation-free path
// the optimizer's fused objective evaluation runs on; the package-level
// Factorize remains the convenient one-shot form.
type LU struct {
	lu      *Dense
	piv     []int
	pivSign float64
	// valid reports that the last Factorize succeeded; solve and inverse
	// calls on an invalid factorization return ErrSingular.
	valid bool
	// col and rhs are scratch columns for InverseInto.
	col []float64
	rhs []float64
}

// NewLU returns an empty factorization workspace. Call (*LU).Factorize to
// populate it; until then every solve or inverse call fails.
func NewLU() *LU { return &LU{} }

// Factorize computes the LU decomposition of a square matrix using Doolittle
// factorization with partial pivoting. It returns ErrSingular if a pivot is
// exactly zero; near-singular matrices factorize but yield large solution
// errors, which callers can detect via ConditionEstimate.
func Factorize(a *Dense) (*LU, error) {
	f := NewLU()
	if err := f.Factorize(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factorize recomputes the decomposition of a in place, reusing the
// receiver's buffers whenever their capacity holds a's size: a workspace
// that has factorized its largest matrix allocates nothing more. The
// arithmetic is identical to the package-level Factorize, so a reused
// workspace produces bit-for-bit the same factors.
func (f *LU) Factorize(a *Dense) error {
	f.valid = false
	if a.rows != a.cols {
		return fmt.Errorf("%w: LU of a %dx%d matrix", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if f.lu == nil || cap(f.lu.data) < n*n {
		f.lu = New(n, n)
		f.piv = make([]int, n)
		f.col = make([]float64, n)
		f.rhs = make([]float64, n)
	}
	f.lu.rows, f.lu.cols, f.lu.data = n, n, f.lu.data[:n*n]
	f.piv, f.col, f.rhs = f.piv[:n], f.col[:n], f.rhs[:n]
	lu := f.lu
	copy(lu.data, a.data)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k at or
		// below the diagonal.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > max {
				max = a
				p = i
			}
		}
		if max == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			mult := lu.data[i*n+k] / pivot
			lu.data[i*n+k] = mult
			if mult == 0 {
				continue
			}
			ri := lu.data[i*n : (i+1)*n]
			rk := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= mult * rk[j]
			}
		}
	}
	f.pivSign = sign
	f.valid = true
	return nil
}

// SolveVec solves A·x = b for x using the factorization.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveVecInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecInto solves A·x = b into the caller-provided x, which must not
// alias b. It is the allocation-free form of SolveVec.
func (f *LU) SolveVecInto(x, b []float64) error {
	if !f.valid {
		return fmt.Errorf("%w: factorization is not valid", ErrSingular)
	}
	n := f.lu.rows
	if len(b) != n {
		return fmt.Errorf("%w: rhs of length %d for %dx%d system", ErrShape, len(b), n, n)
	}
	if len(x) != n {
		return fmt.Errorf("%w: solution of length %d for %dx%d system", ErrShape, len(x), n, n)
	}
	// Apply permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (L is unit lower triangular).
	for i := 1; i < n; i++ {
		ri := f.lu.data[i*n : i*n+i]
		var s float64
		for j, l := range ri {
			s += l * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.data[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += ri[j] * x[j]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	return nil
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	det := f.pivSign
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
}

// Inverse returns the inverse of the factorized matrix.
func (f *LU) Inverse() (*Dense, error) {
	inv := New(f.lu.rows, f.lu.rows)
	if err := f.InverseInto(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseInto writes the inverse of the factorized matrix into dst, reusing
// the workspace's scratch columns. It is the allocation-free form of Inverse.
func (f *LU) InverseInto(dst *Dense) error {
	if !f.valid {
		return fmt.Errorf("%w: factorization is not valid", ErrSingular)
	}
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		return fmt.Errorf("%w: inverse of a %dx%d matrix into %dx%d", ErrShape, n, n, dst.rows, dst.cols)
	}
	e := f.rhs
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		if err := f.SolveVecInto(f.col, e); err != nil {
			return err
		}
		dst.SetCol(j, f.col)
	}
	return nil
}

// Inverse returns m⁻¹, or ErrSingular if m is singular. m must be square.
func (m *Dense) Inverse() (*Dense, error) {
	f, err := Factorize(m)
	if err != nil {
		return nil, err
	}
	return f.Inverse()
}

// Solve solves m·x = b for a single right-hand side.
func (m *Dense) Solve(b []float64) ([]float64, error) {
	f, err := Factorize(m)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Det returns the determinant of m, or 0 if m is singular.
func (m *Dense) Det() float64 {
	f, err := Factorize(m)
	if err != nil {
		return 0
	}
	return f.Det()
}

// Norm1 returns the maximum absolute column sum of m.
func (m *Dense) Norm1() float64 {
	var max float64
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// ConditionEstimate returns an estimate of the 1-norm condition number
// κ₁(m) = ‖m‖₁·‖m⁻¹‖₁, computed by explicit inversion. It returns +Inf for
// singular matrices. For the small (n ≈ 10) matrices in this repository the
// explicit computation is cheap and exact.
func (m *Dense) ConditionEstimate() float64 {
	inv, err := m.Inverse()
	if err != nil {
		return math.Inf(1)
	}
	return m.Norm1() * inv.Norm1()
}
