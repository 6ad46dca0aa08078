package matrix

import (
	"fmt"
)

// Kron is a square matrix stored in Kronecker-factored form: the implicit
// matrix is ⊗_d F_d over the product space N = ∏_d n_d, with factor 0
// varying slowest (row-major product indexing: a flat index i decomposes as
// i = ((i_0·n_1 + i_1)·n_2 + …), matching the repository-wide multi-attribute
// convention). The matrix is never materialized; every operation works on the
// small factors, so storage is Σn_d² instead of N² and a matrix-vector apply
// costs O(N·Σn_d) instead of O(N²). SumMaxMulVecInto applies the matrix over
// the sum and the (max, ×) semirings in one pass, the pair a MAP posterior
// sweep needs.
//
// A Kron either aliases caller-owned factors (NewKron, Reset) or owns its
// storage (KronZeros — the destination form for InverseInto and SquareInto).
// It holds no per-operation state: the same Kron may be read from multiple
// goroutines as long as its factors are not mutated.
type Kron struct {
	factors []*Dense
	dims    []int
	size    int
}

// NewKron returns the Kronecker-factored matrix ⊗_d factors[d]. Every factor
// must be square and non-nil; the factors are aliased, not copied.
func NewKron(factors ...*Dense) (*Kron, error) {
	k := &Kron{}
	if err := k.Reset(factors); err != nil {
		return nil, err
	}
	return k, nil
}

// Reset re-points the Kron at a new factor list, reusing internal slices when
// the factor count is unchanged. The factors are aliased, not copied.
func (k *Kron) Reset(factors []*Dense) error {
	if len(factors) == 0 {
		return fmt.Errorf("%w: Kronecker product of no factors", ErrShape)
	}
	if cap(k.factors) < len(factors) {
		k.factors = make([]*Dense, len(factors))
		k.dims = make([]int, len(factors))
	}
	k.factors = k.factors[:len(factors)]
	k.dims = k.dims[:len(factors)]
	size := 1
	for d, f := range factors {
		if f == nil {
			return fmt.Errorf("%w: nil factor %d", ErrShape, d)
		}
		if f.rows != f.cols {
			return fmt.Errorf("%w: factor %d is %dx%d, want square", ErrShape, d, f.rows, f.cols)
		}
		k.factors[d] = f
		k.dims[d] = f.rows
		size *= f.rows
	}
	k.size = size
	return nil
}

// KronZeros returns a Kron owning freshly allocated zero factors of the given
// sizes — the destination form for InverseInto and SquareInto. It panics on
// an empty or non-positive dimension list, as New does.
func KronZeros(dims []int) *Kron {
	if len(dims) == 0 {
		panic("matrix: KronZeros of no factors")
	}
	factors := make([]*Dense, len(dims))
	for d, n := range dims {
		factors[d] = New(n, n)
	}
	k, err := NewKron(factors...)
	if err != nil {
		panic(err) // unreachable: factors are square by construction
	}
	return k
}

// Size returns the side length N = ∏_d n_d of the implicit matrix.
func (k *Kron) Size() int { return k.size }

// Dims returns a copy of the per-factor sizes.
func (k *Kron) Dims() []int {
	out := make([]int, len(k.dims))
	copy(out, k.dims)
	return out
}

// At returns the implicit matrix entry (⊗F)[i][j] = ∏_d F_d[i_d][j_d] by
// digit decomposition. It is O(d) per call and exists for tests and
// spot-checks; bulk access should go through the vector operations.
func (k *Kron) At(i, j int) float64 {
	if i < 0 || i >= k.size || j < 0 || j >= k.size {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range for %dx%d Kronecker product", i, j, k.size, k.size))
	}
	v := 1.0
	for d := len(k.factors) - 1; d >= 0; d-- {
		n := k.dims[d]
		v *= k.factors[d].data[(i%n)*n+(j%n)]
		i /= n
		j /= n
	}
	return v
}

func (k *Kron) checkVecs(dst, src, tmp []float64) error {
	if len(src) != k.size {
		return fmt.Errorf("%w: vector of length %d for Kronecker product of size %d", ErrShape, len(src), k.size)
	}
	if len(dst) != k.size {
		return fmt.Errorf("%w: product of length %d for Kronecker product of size %d", ErrShape, len(dst), k.size)
	}
	if len(tmp) != k.size {
		return fmt.Errorf("%w: scratch of length %d for Kronecker product of size %d", ErrShape, len(tmp), k.size)
	}
	return nil
}

// MulVecInto computes dst = (⊗_d F_d)·src by successive per-mode
// contractions (the "vec trick"): mode d contracts factor F_d against the
// d-th axis of src viewed as a d-dimensional tensor, costing O(N·n_d), for a
// total of O(N·Σn_d) instead of the O(N²) dense product. tmp is caller
// scratch of length N; dst, src and tmp must not alias each other. src is
// left unchanged.
//
// Every output entry is accumulated from 0 in ascending factor-column order,
// skipping zero factor entries, whichever kernel a mode runs: a mode with
// inner stride 1 takes one dot product per output entry, every other mode
// adds scaled input rows into its output row.
func (k *Kron) MulVecInto(dst, src, tmp []float64) error {
	if err := k.checkVecs(dst, src, tmp); err != nil {
		return err
	}
	inner := k.size
	cur := src
	for d, f := range k.factors {
		n := k.dims[d]
		inner /= n
		out := k.modeTarget(d, dst, tmp)
		if inner == 1 {
			dotMode(out, cur, f.data, n)
		} else {
			axpyMode(out, cur, f.data, n, inner)
		}
		cur = out
	}
	return nil
}

// SumMaxMulVecInto runs two contractions of the same src in one pass over
// the factors: sum = (⊗F)·src, as MulVecInto computes it, and
// rowMax[i] = max_j (⊗F)[i][j]·src[j], the same contraction over the
// (max, ×) semiring. The max chain requires every factor entry and every
// src entry to be non-negative — max then commutes through the per-factor
// products, which is what lets the row-wise maxima of a Kronecker product
// factor mode by mode (this is how the MAP adversary's accuracy is computed
// without materializing the joint channel); each maximum starts from 0.
// sumTmp and maxTmp are caller scratch of length N, and no two of the five
// vectors may alias. sum is bit for bit what MulVecInto writes.
func (k *Kron) SumMaxMulVecInto(sum, rowMax, src, sumTmp, maxTmp []float64) error {
	if err := k.checkVecs(sum, src, sumTmp); err != nil {
		return err
	}
	if err := k.checkVecs(rowMax, src, maxTmp); err != nil {
		return err
	}
	inner := k.size
	curS, curM := src, src
	for d, f := range k.factors {
		n := k.dims[d]
		inner /= n
		outS, outM := k.modeTarget(d, sum, sumTmp), k.modeTarget(d, rowMax, maxTmp)
		if inner == 1 {
			dotSumMaxMode(outS, outM, curS, curM, f.data, n)
		} else {
			axpySumMaxMode(outS, outM, curS, curM, f.data, n, inner)
		}
		curS, curM = outS, outM
	}
	return nil
}

// modeTarget returns the vector mode d writes: the contraction ping-pongs
// between dst and tmp, phased so that the last mode lands in dst.
func (k *Kron) modeTarget(d int, dst, tmp []float64) []float64 {
	if (len(k.factors)-1-d)%2 == 0 {
		return dst
	}
	return tmp
}

// axpyMode applies the row-major n×n factor f along one axis of the flat
// tensor src with the given inner stride (the product of the sizes of the
// faster-varying axes): each output row of inner entries is the sum of the
// input rows scaled by the factor row's non-zero entries.
func axpyMode(dst, src, f []float64, n, inner int) {
	block := n * inner
	for base := 0; base < len(dst); base += block {
		for j := 0; j < n; j++ {
			out := dst[base+j*inner : base+(j+1)*inner]
			clear(out)
			for i, a := range f[j*n : (j+1)*n] {
				if a == 0 {
					continue
				}
				in := src[base+i*inner : base+(i+1)*inner]
				for r, v := range in {
					out[r] += a * v
				}
			}
		}
	}
}

// dotMode is axpyMode for inner stride 1, where an output row is a single
// entry: one dot product of a factor row with an input block.
func dotMode(dst, src, f []float64, n int) {
	for base := 0; base < len(dst); base += n {
		in := src[base : base+n]
		for j := 0; j < n; j++ {
			var s float64
			for i, a := range f[j*n : (j+1)*n] {
				if a != 0 {
					s += a * in[i]
				}
			}
			dst[base+j] = s
		}
	}
}

// axpySumMaxMode is axpyMode over two chains at once: the sum chain reads
// srcS into dstS, and the (max, ×) chain reads srcM into dstM with the
// same factor entries.
func axpySumMaxMode(dstS, dstM, srcS, srcM, f []float64, n, inner int) {
	block := n * inner
	for base := 0; base < len(dstS); base += block {
		for j := 0; j < n; j++ {
			outS := dstS[base+j*inner : base+(j+1)*inner]
			outM := dstM[base+j*inner : base+(j+1)*inner]
			clear(outS)
			clear(outM)
			for i, a := range f[j*n : (j+1)*n] {
				if a == 0 {
					continue
				}
				inS := srcS[base+i*inner : base+(i+1)*inner]
				inM := srcM[base+i*inner : base+(i+1)*inner]
				for r, v := range inS {
					outS[r] += a * v
					if p := a * inM[r]; p > outM[r] {
						outM[r] = p
					}
				}
			}
		}
	}
}

// dotSumMaxMode is dotMode over the sum and (max, ×) chains at once.
func dotSumMaxMode(dstS, dstM, srcS, srcM, f []float64, n int) {
	for base := 0; base < len(dstS); base += n {
		inS, inM := srcS[base:base+n], srcM[base:base+n]
		for j := 0; j < n; j++ {
			var s, m float64
			for i, a := range f[j*n : (j+1)*n] {
				if a == 0 {
					continue
				}
				s += a * inS[i]
				if p := a * inM[i]; p > m {
					m = p
				}
			}
			dstS[base+j], dstM[base+j] = s, m
		}
	}
}

// InverseInto writes the factored inverse (⊗F_d)⁻¹ = ⊗F_d⁻¹ into dst,
// inverting each small factor with the shared LU workspace (which keeps the
// buffers of its largest factor, so one workspace serves mixed category
// counts without reallocating). dst must have the same per-factor sizes;
// ErrSingular from any factor propagates — a Kronecker product is singular
// exactly when some factor is.
func (k *Kron) InverseInto(dst *Kron, lu *LU) error {
	if err := k.checkDst(dst); err != nil {
		return err
	}
	if lu == nil {
		lu = NewLU()
	}
	for d, f := range k.factors {
		if err := lu.Factorize(f); err != nil {
			return fmt.Errorf("factor %d: %w", d, err)
		}
		if err := lu.InverseInto(dst.factors[d]); err != nil {
			return fmt.Errorf("factor %d: %w", d, err)
		}
	}
	return nil
}

// SquareInto writes the element-wise square (⊗F_d)∘² = ⊗(F_d∘²) into dst —
// squaring commutes with the Kronecker product, which is what lets the
// quadratic form Σ_i β²_{k,i}·v_i of the closed-form MSE (Theorem 6) factor.
// dst must have the same per-factor sizes.
func (k *Kron) SquareInto(dst *Kron) error {
	if err := k.checkDst(dst); err != nil {
		return err
	}
	for d, f := range k.factors {
		df := dst.factors[d].data
		for i, v := range f.data {
			df[i] = v * v
		}
	}
	return nil
}

func (k *Kron) checkDst(dst *Kron) error {
	if dst == nil || len(dst.factors) != len(k.factors) {
		return fmt.Errorf("%w: destination factor count mismatch", ErrShape)
	}
	for d, n := range k.dims {
		if dst.dims[d] != n {
			return fmt.Errorf("%w: destination factor %d is %d, want %d", ErrShape, d, dst.dims[d], n)
		}
	}
	return nil
}
