package optrr

import (
	"fmt"
	"sort"

	"optrr/internal/core"
	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/rr"
)

// This file exposes the multi-dimensional extension (the paper's future
// work, Section VII): jointly optimizing one RR matrix per attribute against
// record-level privacy and joint-distribution utility.

// MultiProblem describes a multi-attribute optimization task.
type MultiProblem struct {
	// Joint is the original joint distribution over the product space,
	// row-major with attribute 0 slowest (MultiRR.Index order).
	Joint []float64
	// Sizes lists the per-attribute category counts.
	Sizes []int
	// Records is the data-set size N for the utility metric.
	Records int
	// Delta bounds the record-level posterior max P(X-record | Y-record).
	Delta float64
	// Seed makes the run reproducible.
	Seed uint64
	// Generations overrides the search budget; zero uses the default (300).
	Generations int
	// Workers bounds the evaluation parallelism; zero or negative uses
	// GOMAXPROCS. The result is bit-for-bit identical at every setting.
	Workers int
}

// MultiResult is the outcome of OptimizeMulti.
type MultiResult struct {
	// Front lists the optimal trade-off points, ascending in privacy.
	Front []Point
	// tuples[i] corresponds to Front[i]: one matrix per attribute.
	tuples [][]*Matrix
	// Generations and Evaluations report the search effort spent.
	Generations int
	Evaluations int
}

// Tuples returns the per-attribute matrix tuples, index-aligned with Front.
func (r *MultiResult) Tuples() [][]*Matrix {
	out := make([][]*Matrix, len(r.tuples))
	copy(out, r.tuples)
	return out
}

// TupleWithPrivacyAtLeast returns the tuple with the best joint utility
// among those offering at least the requested record-level privacy.
func (r *MultiResult) TupleWithPrivacyAtLeast(privacy float64) ([]*Matrix, bool) {
	best := -1
	for i, p := range r.Front {
		if p.Privacy >= privacy && (best == -1 || p.Utility < r.Front[best].Utility) {
			best = i
		}
	}
	if best == -1 {
		return nil, false
	}
	return r.tuples[best], true
}

// OptimizeMulti searches for Pareto-optimal per-attribute matrix tuples.
func OptimizeMulti(p MultiProblem) (*MultiResult, error) {
	cfg := core.MultiConfig{
		Joint:       p.Joint,
		Sizes:       p.Sizes,
		Records:     p.Records,
		Delta:       p.Delta,
		Seed:        p.Seed,
		Generations: p.Generations,
		Workers:     p.Workers,
	}
	res, err := core.OptimizeMulti(cfg)
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	// Sort points and tuples together with the FrontPoints comparator, so
	// alignment holds by construction instead of by O(front²) re-matching.
	type pair struct {
		pt    Point
		tuple []*Matrix
	}
	pairs := make([]pair, 0, len(res.Front))
	for _, ind := range res.Front {
		ms, err := ind.Matrices()
		if err != nil {
			return nil, fmt.Errorf("optrr: %w", err)
		}
		pairs = append(pairs, pair{pt: ind.Point(), tuple: ms})
	}
	sort.Slice(pairs, func(a, b int) bool {
		return pareto.Compare(pairs[a].pt, pairs[b].pt) < 0
	})
	out := &MultiResult{
		Front:       make([]Point, len(pairs)),
		tuples:      make([][]*Matrix, len(pairs)),
		Generations: res.Generations,
		Evaluations: res.Evaluations,
	}
	for i, pr := range pairs {
		out.Front[i] = pr.pt
		out.tuples[i] = pr.tuple
	}
	return out, nil
}

// DisguiseMultiBatch disguises multi-attribute records — records[k][d] is
// record k's category on attribute d — applying ms[d] to column d with the
// deterministic chunked batch kernel. The output depends only on
// (ms, records, seed); workers ≤ 0 uses GOMAXPROCS.
func DisguiseMultiBatch(ms []*Matrix, records [][]int, seed uint64, workers int) ([][]int, error) {
	out, err := rr.TupleDisguiseBatch(ms, records, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	return out, nil
}

// EstimateJointInversion reconstructs the original joint distribution
// (row-major, attribute 0 slowest — MultiRR.Index order) from disguised
// multi-attribute records via the Kronecker-factored inversion estimator
// P̂ = (⊗M_d⁻¹)·P̂*; the joint channel is never materialized. The estimate
// is unbiased but may leave the simplex on small samples; pass it through
// ClipDistribution for a proper distribution.
func EstimateJointInversion(ms []*Matrix, disguised [][]int) ([]float64, error) {
	est, err := rr.TupleEstimateJoint(ms, disguised)
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	return est, nil
}

// JointPrivacy returns the record-level privacy of disguising each attribute
// independently with the given matrices, under the joint prior.
func JointPrivacy(ms []*Matrix, joint []float64) (float64, error) {
	return metrics.JointPrivacy(ms, joint)
}

// JointUtility returns the average closed-form MSE of the reconstructed
// joint distribution.
func JointUtility(ms []*Matrix, joint []float64, records int) (float64, error) {
	return metrics.JointUtility(ms, joint, records)
}

// JointMaxPosterior returns the worst-case record-level posterior.
func JointMaxPosterior(ms []*Matrix, joint []float64) (float64, error) {
	return metrics.JointMaxPosterior(ms, joint)
}

// ConfidenceIntervals returns per-category half-widths of approximate
// normal confidence intervals for an inversion estimate produced by m over
// a data set of the given size: halfWidth[k] = z·sqrt(MSE_k) with MSE_k the
// closed-form per-category variance of Theorem 6 evaluated at the estimated
// distribution, clipped onto the simplex (rr.Matrix.HalfWidths, the
// half-widths a dense collector's snapshot states). z = 1.96 gives ~95%
// intervals; z must be a positive finite number.
func ConfidenceIntervals(m *Matrix, estimate []float64, records int, z float64) ([]float64, error) {
	half, err := m.HalfWidths(rr.Clip(estimate), records, z)
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	return half, nil
}
