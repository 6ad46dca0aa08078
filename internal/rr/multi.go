package rr

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/randx"
)

// Multi-attribute batch disguise and estimation, Kronecker-factored: a
// d-attribute record is disguised by applying each attribute's matrix to its
// column independently, and the joint distribution is reconstructed by
// applying the factored inverse (⊗M_d)⁻¹ = ⊗M_d⁻¹ to the empirical joint of
// the disguised records — the joint channel over the product space is never
// materialized. This is the data-pipeline counterpart of the factored
// metrics in internal/metrics: disguise costs the same as d independent 1-D
// batches, and inversion costs d small LU factorizations plus one
// O(N·Σn_d) factored apply.

// validateTuple checks a per-attribute matrix list.
func validateTuple(ms []*Matrix) error {
	if len(ms) == 0 {
		return fmt.Errorf("%w: no attributes", ErrShape)
	}
	for d, m := range ms {
		if m == nil {
			return fmt.Errorf("%w: nil matrix for attribute %d", ErrShape, d)
		}
	}
	return nil
}

// tupleCells validates a per-attribute matrix list and returns the number of
// cells ∏n_d of its joint space, or ErrShape when that count overflows int.
func tupleCells(ms []*Matrix) (int, error) {
	if err := validateTuple(ms); err != nil {
		return 0, err
	}
	cells := 1
	for _, m := range ms {
		if m.N() > math.MaxInt/cells {
			return 0, fmt.Errorf("%w: joint space of %d attributes has more cells than an int can count", ErrShape, len(ms))
		}
		cells *= m.N()
	}
	return cells, nil
}

// tupleSeeds derives one independent disguise seed per attribute from the
// caller's seed by sequential draws. (Deliberately not randx.StreamSeed(seed,
// d) reused as a batch seed: DisguiseBatchInto already streams per chunk from
// its seed, and the splitmix64 mixing is symmetric in (attribute, chunk) —
// attribute 1/chunk 0 would collide with attribute 0/chunk 1.)
func tupleSeeds(seed uint64, attrs int) []uint64 {
	r := randx.New(seed)
	out := make([]uint64, attrs)
	for d := range out {
		out[d] = r.Uint64()
	}
	return out
}

// TupleDisguiseBatch disguises multi-attribute records — records[k][d] is
// record k's category on attribute d — by applying ms[d] to column d via the
// chunked batch kernel, returning freshly allocated disguised records. The
// output depends only on (ms, records, seed), never on the worker count
// (zero workers means GOMAXPROCS), exactly as for DisguiseBatch.
func TupleDisguiseBatch(ms []*Matrix, records [][]int, seed uint64, workers int) ([][]int, error) {
	backing := make([]int, len(records)*len(ms))
	dst := make([][]int, len(records))
	for k := range dst {
		dst[k] = backing[k*len(ms) : (k+1)*len(ms) : (k+1)*len(ms)]
	}
	if err := TupleDisguiseBatchInto(dst, records, ms, seed, workers); err != nil {
		return nil, err
	}
	return dst, nil
}

// TupleDisguiseBatchInto is TupleDisguiseBatch into caller-provided storage:
// dst must have one row per record, each of attribute length. dst and
// records may not alias. On error the contents of dst are unspecified.
func TupleDisguiseBatchInto(dst, records [][]int, ms []*Matrix, seed uint64, workers int) error {
	if err := validateTuple(ms); err != nil {
		return err
	}
	attrs := len(ms)
	if len(dst) != len(records) {
		return fmt.Errorf("%w: dst of %d rows for %d records", ErrShape, len(dst), len(records))
	}
	for k, rec := range records {
		if len(rec) != attrs {
			return fmt.Errorf("%w: record %d has %d attributes, want %d", ErrShape, k, len(rec), attrs)
		}
		if len(dst[k]) != attrs {
			return fmt.Errorf("%w: dst row %d has %d attributes, want %d", ErrShape, k, len(dst[k]), attrs)
		}
	}
	seeds := tupleSeeds(seed, attrs)
	col := make([]int, len(records))
	out := make([]int, len(records))
	for d, m := range ms {
		for k, rec := range records {
			col[k] = rec[d]
		}
		if err := m.DisguiseBatchInto(out, col, seeds[d], workers); err != nil {
			return fmt.Errorf("rr: attribute %d: %w", d, err)
		}
		for k, v := range out {
			dst[k][d] = v
		}
	}
	return nil
}

// TupleEstimateJoint reconstructs the original joint distribution (row-major
// over the product space, attribute 0 slowest — mining.MultiRR.Index order)
// from disguised multi-attribute records via the factored inversion
// estimator: P̂ = (⊗M_d⁻¹)·P̂*, where P̂* is the empirical joint of the
// disguised records. Like EstimateInversion, the estimate is unbiased but
// may leave the simplex on small samples; pass it through Clip for a proper
// distribution. It returns ErrSingular if any attribute's matrix is
// singular, and ErrShape if the joint space has more cells than an int can
// count.
func TupleEstimateJoint(ms []*Matrix, disguised [][]int) ([]float64, error) {
	cells, err := tupleCells(ms)
	if err != nil {
		return nil, err
	}
	if len(disguised) == 0 {
		return nil, ErrEmptyData
	}
	counts := make([]float64, cells)
	for k, rec := range disguised {
		if len(rec) != len(ms) {
			return nil, fmt.Errorf("%w: record %d has %d attributes, want %d", ErrShape, k, len(rec), len(ms))
		}
		idx := 0
		for d, v := range rec {
			if v < 0 || v >= ms[d].N() {
				return nil, fmt.Errorf("%w: record %d has category %d on attribute %d", ErrShape, k, v, d)
			}
			idx = idx*ms[d].N() + v
		}
		counts[idx]++
	}
	invN := 1 / float64(len(disguised))
	for i := range counts {
		counts[i] *= invN
	}
	return TupleEstimateFromDistribution(ms, counts)
}

// TupleEstimateFromDistribution applies the factored inversion estimator
// P̂ = (⊗M_d⁻¹)·P̂* to an already-computed disguised joint distribution P̂*
// (row-major, attribute 0 slowest): the tuple twin of
// EstimateInversionFromDistribution. Each attribute's matrix is inverted
// once, and the inverse is applied axis by axis in O(N·Σn_d). It returns
// ErrSingular if any attribute's matrix is singular.
func TupleEstimateFromDistribution(ms []*Matrix, pStar []float64) ([]float64, error) {
	cells, err := tupleCells(ms)
	if err != nil {
		return nil, err
	}
	if len(pStar) != cells {
		return nil, fmt.Errorf("%w: distribution of length %d for %d joint cells", ErrShape, len(pStar), cells)
	}
	factors := make([]*matrix.Dense, len(ms))
	for d, m := range ms {
		factors[d] = m.DenseView()
	}
	theta, err := matrix.NewKron(factors...)
	if err != nil {
		return nil, err
	}
	inv := matrix.KronZeros(theta.Dims())
	if err := theta.InverseInto(inv, matrix.NewLU()); err != nil {
		if errors.Is(err, matrix.ErrSingular) {
			return nil, fmt.Errorf("%w: %v", ErrSingular, err)
		}
		return nil, err
	}
	est := make([]float64, cells)
	if err := inv.MulVecInto(est, pStar, make([]float64, cells)); err != nil {
		return nil, err
	}
	return est, nil
}
