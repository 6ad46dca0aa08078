// Package rr implements the Randomized Response technique of Section III of
// the paper: column-stochastic disguise matrices, the three published RR
// schemes (Warner, Uniform Perturbation, FRAPP), the disguise operation, and
// the two distribution-reconstruction estimators (inversion, Theorem 1; and
// the iterative EM-style estimator of Agrawal et al., Equation 3).
//
// Index convention, matching the paper: for an RR matrix M, the entry
// M[j][i] = θ_{j,i} is the probability that original category c_i is
// reported as category c_j. Columns therefore sum to one.
package rr

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"optrr/internal/matrix"
	"optrr/internal/randx"
)

// Tolerance for validating that columns sum to one.
const stochasticTol = 1e-9

// Matrix is a column-stochastic randomized-response matrix over n categories.
// It wraps a dense matrix and maintains the RR invariants: square, all
// entries in [0, 1], every column summing to 1.
type Matrix struct {
	m *matrix.Dense

	// samplers lazily caches the per-column alias samplers (see Samplers),
	// and inv the factorization the inversion estimator and Theorem 6 run on
	// (see inverted). SetColumns and UnmarshalJSON clear both; all other
	// methods leave the columns — and therefore the caches — untouched.
	samplers atomic.Pointer[[]*randx.Alias]
	inv      atomic.Pointer[inversion]
}

// RR errors.
var (
	// ErrNotStochastic reports a matrix whose entries are outside [0,1] or
	// whose columns do not sum to one.
	ErrNotStochastic = errors.New("rr: matrix is not column-stochastic")
	// ErrSingular reports a non-invertible RR matrix, for which the
	// inversion estimator is undefined.
	ErrSingular = errors.New("rr: matrix is singular")
	// ErrShape reports incompatible dimensions.
	ErrShape = errors.New("rr: dimension mismatch")
)

// FromDense validates and wraps a dense matrix as an RR matrix. The dense
// matrix is cloned, so later mutation of d does not affect the result.
func FromDense(d *matrix.Dense) (*Matrix, error) {
	if d.Rows() != d.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, d.Rows(), d.Cols())
	}
	m := &Matrix{m: d.Clone()}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// FromColumns builds an RR matrix from column vectors: cols[i][j] = θ_{j,i}.
func FromColumns(cols [][]float64) (*Matrix, error) {
	n := len(cols)
	if n == 0 {
		return nil, fmt.Errorf("%w: no columns", ErrShape)
	}
	// Check every column before allocating n×n: a decoded file with many
	// empty columns must not cost n² memory to reject.
	for i, col := range cols {
		if len(col) != n {
			return nil, fmt.Errorf("%w: column %d has %d entries, want %d", ErrShape, i, len(col), n)
		}
	}
	d := matrix.New(n, n)
	for i, col := range cols {
		d.SetCol(i, col)
	}
	return FromDense(d)
}

// NewScratchMatrix returns an n-category matrix intended as reusable storage
// for SetColumns: the evaluation hot path materializes one genome after
// another into the same matrix instead of allocating per genome. The initial
// contents are the totally-random matrix (every entry 1/n), so the value is
// valid even before the first SetColumns.
func NewScratchMatrix(n int) *Matrix {
	return TotallyRandom(n)
}

// SetColumns overwrites the matrix in place from column vectors
// (cols[i][j] = θ_{j,i}) and re-validates. On error the matrix contents are
// unspecified and must not be used until a successful SetColumns. The checks
// and error values match FromColumns.
func (m *Matrix) SetColumns(cols [][]float64) error {
	n := m.N()
	if len(cols) != n {
		return fmt.Errorf("%w: %d columns for %d categories", ErrShape, len(cols), n)
	}
	for i, col := range cols {
		if len(col) != n {
			return fmt.Errorf("%w: column %d has %d entries, want %d", ErrShape, i, len(col), n)
		}
		m.m.SetCol(i, col)
	}
	m.samplers.Store(nil)
	m.inv.Store(nil)
	return m.Validate()
}

// Validate checks the RR invariants and returns ErrNotStochastic on failure.
func (m *Matrix) Validate() error {
	n := m.N()
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			v := m.m.At(j, i)
			if v < -stochasticTol || v > 1+stochasticTol || math.IsNaN(v) {
				return fmt.Errorf("%w: entry (%d,%d) = %v", ErrNotStochastic, j, i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > stochasticTol*float64(n) {
			return fmt.Errorf("%w: column %d sums to %v", ErrNotStochastic, i, sum)
		}
	}
	return nil
}

// N returns the number of categories.
func (m *Matrix) N() int { return m.m.Rows() }

// Theta returns θ_{j,i} = P(Y = c_j | X = c_i).
func (m *Matrix) Theta(j, i int) float64 { return m.m.At(j, i) }

// Column returns a copy of column i: the disguise distribution of original
// category c_i.
func (m *Matrix) Column(i int) []float64 { return m.m.Col(i) }

// Dense returns a copy of the underlying dense matrix.
func (m *Matrix) Dense() *matrix.Dense { return m.m.Clone() }

// DenseView returns the underlying dense matrix without copying. Callers
// must treat it as read-only; it is the zero-allocation access the
// Kronecker-factored joint metrics build their factor views from.
func (m *Matrix) DenseView() *matrix.Dense { return m.m }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix { return &Matrix{m: m.m.Clone()} }

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	return other != nil && m.m.Equal(other.m, tol)
}

// String renders the matrix.
func (m *Matrix) String() string { return m.m.String() }

// DisguisedDistribution returns P* = M·P, the category distribution of the
// disguised data implied by original distribution p (Equation 1).
func (m *Matrix) DisguisedDistribution(p []float64) ([]float64, error) {
	if len(p) != m.N() {
		return nil, fmt.Errorf("%w: distribution of length %d for %d categories", ErrShape, len(p), m.N())
	}
	return m.m.MulVec(p)
}

// DisguisedDistributionInto computes P* = M·P into the caller-provided dst
// (length n, must not alias p) — the allocation-free form of
// DisguisedDistribution.
func (m *Matrix) DisguisedDistributionInto(dst, p []float64) error {
	if len(p) != m.N() {
		return fmt.Errorf("%w: distribution of length %d for %d categories", ErrShape, len(p), m.N())
	}
	return m.m.MulVecInto(dst, p)
}

// ThetaRow returns row j of the matrix — the vector (θ_{j,0}, …, θ_{j,n-1})
// of probabilities that each original category reports c_j — aliasing the
// matrix storage. Callers must treat the slice as read-only.
func (m *Matrix) ThetaRow(j int) []float64 { return m.m.RowView(j) }

// FactorizeInto recomputes f as the LU factorization of the matrix, reusing
// f's buffers — the allocation-free path behind Inverse. It returns
// ErrSingular for singular matrices.
func (m *Matrix) FactorizeInto(f *matrix.LU) error {
	if err := f.Factorize(m.m); err != nil {
		if errors.Is(err, matrix.ErrSingular) {
			return fmt.Errorf("%w: %v", ErrSingular, err)
		}
		return err
	}
	return nil
}

// Inverse returns M⁻¹ or ErrSingular.
func (m *Matrix) Inverse() (*matrix.Dense, error) {
	inv, err := m.m.Inverse()
	if err != nil {
		if errors.Is(err, matrix.ErrSingular) {
			return nil, fmt.Errorf("%w: %v", ErrSingular, err)
		}
		return nil, err
	}
	return inv, nil
}

// Invertible reports whether the inversion estimator is defined for m.
func (m *Matrix) Invertible() bool {
	_, err := matrix.Factorize(m.m)
	return err == nil && !math.IsInf(m.m.ConditionEstimate(), 1)
}

// Disguise applies randomized response to every record: each original
// category c_i is replaced by a category drawn from column i of M.
func (m *Matrix) Disguise(records []int, r *randx.Source) ([]int, error) {
	n := m.N()
	samplers, err := m.Samplers()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(records))
	for k, rec := range records {
		if rec < 0 || rec >= n {
			return nil, fmt.Errorf("%w: record %d has category %d", ErrShape, k, rec)
		}
		out[k] = samplers[rec].Draw(r)
	}
	return out, nil
}

// Identity returns the n×n identity RR matrix (no disguise; the paper's M1).
func Identity(n int) *Matrix {
	m, err := FromDense(matrix.Identity(n))
	if err != nil {
		panic(fmt.Sprintf("rr: identity invalid: %v", err))
	}
	return m
}

// Compose returns the RR matrix equivalent to disguising first with inner
// and then disguising the result with outer: the matrix product outer·inner.
// Column-stochastic matrices are closed under multiplication, so the result
// is a valid RR matrix. By the data-processing inequality the composition
// never reveals more about X than either stage alone.
func Compose(outer, inner *Matrix) (*Matrix, error) {
	if outer.N() != inner.N() {
		return nil, fmt.Errorf("%w: composing %d and %d categories", ErrShape, outer.N(), inner.N())
	}
	prod, err := outer.m.Mul(inner.m)
	if err != nil {
		return nil, err
	}
	return FromDense(prod)
}

// TotallyRandom returns the matrix with every entry 1/n (the paper's M2):
// perfect privacy, zero utility. It is singular, so the inversion estimator
// is undefined for it.
func TotallyRandom(n int) *Matrix {
	d := matrix.New(n, n)
	v := 1 / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d.Set(j, i, v)
		}
	}
	m, err := FromDense(d)
	if err != nil {
		panic(fmt.Sprintf("rr: totally-random invalid: %v", err))
	}
	return m
}
