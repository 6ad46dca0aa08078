package collector

import (
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/metrics"
	"optrr/internal/rr"
)

// bounds turns one consistent counts fold (total > 0) into estimates and
// confidence half-widths: the one thing that differs between scheme kinds.
// New picks the implementation once (boundsFor): a dense matrix gets the
// cached-LU solver with Theorem-6 half-widths, which alone also projects
// margins (Collector.ReportsForMargin); any other scheme gets schemeBounds.
type bounds interface {
	// estimate returns the raw debiased frequencies of the requested
	// categories (nil: the full domain, in order).
	estimate(counts []int, total int, categories []int) ([]float64, error)
	// reconstruct returns the full-domain estimate summaries report and
	// heavy-hitter scans rank.
	reconstruct(counts []int, total int) ([]float64, error)
	// summarize returns the reconstruction of the requested categories
	// (nil: all) with half-widths at the (already validated) quantile z.
	summarize(counts []int, total int, z float64, categories []int) (Summary, error)
}

// boundedEstimator is the optional scheme capability of attaching
// distribution-free confidence half-widths to point queries (implemented by
// sketch.CMSScheme, which this package does not import).
type boundedEstimator interface {
	EstimateWithBound(counts []int, categories []int, z, ell2 float64) ([]float64, []float64, error)
}

// boundsFor picks the bounds capability of a scheme: the cached-LU solver
// for a dense matrix, the scheme's own debiasing otherwise.
func boundsFor(scheme rr.Scheme) bounds {
	if m, ok := scheme.(*rr.Matrix); ok {
		return newSolver(m)
	}
	b := schemeBounds{scheme: scheme}
	b.bounded, _ = scheme.(boundedEstimator)
	return b
}

// schemeBounds answers through the scheme's EstimateFrom — for the
// count-mean sketch a point query debiases only the ≤ k cells each named
// category hashes to, and the full domain debiases all k·m cells once, then
// costs O(k) per category — and takes half-widths from EstimateWithBound
// when the scheme has it.
type schemeBounds struct {
	scheme  rr.Scheme
	bounded boundedEstimator // nil when the scheme states no bounds
}

func (b schemeBounds) estimate(counts []int, _ int, categories []int) ([]float64, error) {
	return b.scheme.EstimateFrom(counts, categories)
}

func (b schemeBounds) reconstruct(counts []int, _ int) ([]float64, error) {
	return b.scheme.EstimateFrom(counts, nil)
}

// summarize states the bound at the worst-case ℓ² mass of 1: nothing better
// is known about the true distribution.
func (b schemeBounds) summarize(counts []int, total int, z float64, categories []int) (Summary, error) {
	s := Summary{Reports: total, Z: z}
	var err error
	if b.bounded != nil {
		s.Estimate, s.HalfWidth, err = b.bounded.EstimateWithBound(counts, categories, z, 1)
	} else {
		s.Estimate, err = b.scheme.EstimateFrom(counts, categories)
	}
	if err != nil {
		return Summary{}, err
	}
	return s, nil
}

// solver is the bounds of a dense disguise matrix. It caches the LU
// factorization — and the explicit inverse the variance queries need — at
// collector construction: the matrix is fixed for a whole collection
// campaign, so a query is a single triangular solve, never a
// refactorization. A singular matrix does not fail construction: the error
// is remembered and every estimate query returns it.
type solver struct {
	m   *rr.Matrix
	lu  *matrix.LU
	inv *matrix.Dense
	err error
}

// newSolver factorizes m once. The factorization arithmetic is identical to
// the one-shot matrix.Dense.Solve path, so cached estimates are bit-for-bit
// the estimates an uncached inversion produces.
func newSolver(m *rr.Matrix) *solver {
	sv := &solver{m: m, lu: matrix.NewLU()}
	if err := m.FactorizeInto(sv.lu); err != nil {
		sv.err = err
		return sv
	}
	inv, err := sv.lu.Inverse()
	if err != nil {
		sv.err = fmt.Errorf("%w: %v", rr.ErrSingular, err)
		return sv
	}
	sv.inv = inv
	return sv
}

// disguised normalizes a counts fold into the empirical disguised
// distribution.
func disguised(counts []int, total int) []float64 {
	out := make([]float64, len(counts))
	inv := 1 / float64(total)
	for i, n := range counts {
		out[i] = float64(n) * inv
	}
	return out
}

// solve applies the inversion estimator (Theorem 1) to a disguised
// distribution through the cached factorization.
func (sv *solver) solve(pStar []float64) ([]float64, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	x, err := sv.lu.SolveVec(pStar)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", rr.ErrSingular, err)
	}
	return x, nil
}

func (sv *solver) estimate(counts []int, total int, categories []int) ([]float64, error) {
	est, err := sv.solve(disguised(counts, total))
	if err != nil {
		return nil, err
	}
	return pick(est, categories)
}

func (sv *solver) reconstruct(counts []int, total int) ([]float64, error) {
	raw, err := sv.solve(disguised(counts, total))
	if err != nil {
		return nil, err
	}
	return rr.Clip(raw), nil
}

// summarize evaluates the Theorem-6 variance at the clipped estimate
// through the cached inverse.
func (sv *solver) summarize(counts []int, total int, z float64, categories []int) (Summary, error) {
	pStar := disguised(counts, total)
	raw, err := sv.solve(pStar)
	if err != nil {
		return Summary{}, err
	}
	est := rr.Clip(raw)
	mses, err := metrics.PerCategoryMSEWithInverse(sv.m, sv.inv, est, total)
	if err != nil {
		return Summary{}, fmt.Errorf("collector: %w", err)
	}
	half := make([]float64, len(mses))
	for k, v := range mses {
		if v > 0 {
			half[k] = z * math.Sqrt(v)
		}
	}
	if est, err = pick(est, categories); err != nil {
		return Summary{}, err
	}
	half, _ = pick(half, categories) // same length, categories just validated
	return Summary{Reports: total, Disguised: pStar, Estimate: est, HalfWidth: half, Z: z}, nil
}

// reportsForMargin projects the reports needed for the worst-category
// half-width at quantile z to shrink to the target margin, given the current
// counts. Edge cases are pinned by TestReportsForMarginEdgeCases: a
// non-positive or non-finite margin is ErrBadMargin (NaN fails the < 0 and
// <= 0 comparisons, so it needs an explicit check, or it would flow into the
// extrapolation as an undefined int conversion); an empty collector is
// ErrNoReports, never a division by zero; and a margin the current
// collection already meets answers with the current total rather than
// extrapolating downward.
func (sv *solver) reportsForMargin(counts []int, total int, margin, z float64) (int, error) {
	if !(margin > 0) || math.IsInf(margin, 1) {
		return 0, fmt.Errorf("%w: got %v", ErrBadMargin, margin)
	}
	if total == 0 {
		return 0, ErrNoReports
	}
	if !(z > 0) || math.IsInf(z, 1) {
		return 0, fmt.Errorf("collector: z must be a positive finite number, got %v", z)
	}
	s, err := sv.summarize(counts, total, z, nil)
	if err != nil {
		return 0, err
	}
	cur := s.worstHalfWidth()
	if cur <= margin {
		// Already there (or exactly there): the answer is the evidence we
		// have, not a <= total extrapolation.
		return total, nil
	}
	// Half-widths scale as 1/sqrt(N).
	scale := cur / margin
	need := float64(total) * scale * scale
	if need > math.MaxInt32 {
		return math.MaxInt32, nil
	}
	return int(math.Ceil(need)), nil
}

// pick selects the requested categories from a full-domain vector; nil
// categories returns the vector itself.
func pick(full []float64, categories []int) ([]float64, error) {
	if categories == nil {
		return full, nil
	}
	out := make([]float64, len(categories))
	for i, x := range categories {
		if x < 0 || x >= len(full) {
			return nil, fmt.Errorf("%w: category %d of %d", rr.ErrShape, x, len(full))
		}
		out[i] = full[x]
	}
	return out, nil
}

// worstHalfWidth returns the largest confidence half-width across categories.
func (s Summary) worstHalfWidth() float64 {
	var worst float64
	for _, h := range s.HalfWidth {
		if h > worst {
			worst = h
		}
	}
	return worst
}
