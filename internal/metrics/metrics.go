// Package metrics implements the paper's quantification of privacy and
// utility (Section IV).
//
// Privacy is defined against the Bayes-optimal adversary: given a disguised
// value Y, the adversary's best estimate of the original X is the MAP
// estimate (Theorems 3–4), whose expected accuracy is
//
//	A = Σ_Y P(Y | X̂_Y)·P(X̂_Y) = Σ_j max_i θ_{j,i}·P(c_i),
//
// and Privacy = 1 − A (Equation 8). The per-record worst case is bounded by
// max_Y P(X̂_Y | Y) ≤ δ (Equation 9); Theorem 5 shows this bound can never
// be below max_X P(X).
//
// Utility is the average closed-form Mean Squared Error of the inversion
// estimator (Theorem 6). Because the estimator is unbiased, the MSE equals
// the estimator variance, which follows from the multinomial covariance of
// the disguised counts. Larger utility values mean worse utility.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/rr"
)

// Metric errors.
var (
	// ErrShape reports mismatched category counts.
	ErrShape = errors.New("metrics: dimension mismatch")
	// ErrBadPrior reports an invalid prior distribution.
	ErrBadPrior = errors.New("metrics: invalid prior distribution")
	// ErrBadRecords reports a non-positive record count.
	ErrBadRecords = errors.New("metrics: record count must be positive")
)

func validatePrior(m *rr.Matrix, prior []float64) error {
	if len(prior) != m.N() {
		return fmt.Errorf("%w: prior of length %d for %d categories", ErrShape, len(prior), m.N())
	}
	var sum float64
	for i, v := range prior {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: prior[%d] = %v", ErrBadPrior, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: prior sums to %v", ErrBadPrior, sum)
	}
	return nil
}

// Posterior returns the posterior matrix post[j][i] = P(X = c_i | Y = c_j)
// under matrix m and the given prior. Rows for unobservable disguised values
// (P(Y = c_j) = 0) are all zero.
func Posterior(m *rr.Matrix, prior []float64) ([][]float64, error) {
	if err := validatePrior(m, prior); err != nil {
		return nil, err
	}
	n := m.N()
	pStar, err := m.DisguisedDistribution(prior)
	if err != nil {
		return nil, err
	}
	post := make([][]float64, n)
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		if pStar[j] > 0 {
			for i := 0; i < n; i++ {
				row[i] = m.Theta(j, i) * prior[i] / pStar[j]
			}
		}
		post[j] = row
	}
	return post, nil
}

// MAPEstimate returns, for each disguised value c_j, the adversary's MAP
// estimate of the original category (Theorem 3): argmax_i P(X = c_i | Y = c_j).
// Ties break toward the smaller index for determinism. Unobservable
// disguised values map to -1.
func MAPEstimate(m *rr.Matrix, prior []float64) ([]int, error) {
	post, err := Posterior(m, prior)
	if err != nil {
		return nil, err
	}
	n := m.N()
	est := make([]int, n)
	for j := 0; j < n; j++ {
		best, bestV := -1, 0.0
		for i := 0; i < n; i++ {
			if post[j][i] > bestV {
				best, bestV = i, post[j][i]
			}
		}
		est[j] = best
	}
	return est, nil
}

// Accuracy returns the Bayes-optimal adversary's expected estimation
// accuracy A = Σ_j max_i θ_{j,i}·P(c_i). This equals
// Σ_Y P(X̂_Y | Y)·P(Y) and, by Bayes' rule, Σ_Y P(Y | X̂_Y)·P(X̂_Y).
func Accuracy(m *rr.Matrix, prior []float64) (float64, error) {
	ws := NewWorkspace()
	if err := ws.bind(m, prior); err != nil {
		return 0, err
	}
	a, _ := ws.mapSweep(m, prior)
	return a, nil
}

// Privacy returns 1 − A (Equation 8). Larger is better for privacy.
func Privacy(m *rr.Matrix, prior []float64) (float64, error) {
	return NewWorkspace().Privacy(m, prior)
}

// MaxPosterior returns max_{Y,X} P(X | Y), the worst-case per-record
// estimation accuracy that Equation (9) bounds by δ.
func MaxPosterior(m *rr.Matrix, prior []float64) (float64, error) {
	return NewWorkspace().MaxPosterior(m, prior)
}

// BoundTolerance is the slack of every δ check: a posterior p meets the
// bound when p ≤ δ + BoundTolerance, so a matrix repaired onto δ exactly is
// not rejected for the last bits of rounding.
const BoundTolerance = 1e-12

// MeetsBound reports whether m satisfies the privacy bound
// max P(X | Y) ≤ delta under the given prior.
func MeetsBound(m *rr.Matrix, prior []float64, delta float64) (bool, error) {
	return NewWorkspace().MeetsBound(m, prior, delta)
}

// BoundFloor returns the smallest achievable posterior bound for a prior:
// by Theorem 5 no RR matrix can push max P(X̂ | Y) below max_X P(X).
func BoundFloor(prior []float64) float64 {
	var max float64
	for _, v := range prior {
		if v > max {
			max = v
		}
	}
	return max
}

// Utility returns the paper's utility metric (Equation 10): the average over
// categories of the closed-form MSE of the inversion estimator (Theorem 6)
// for a data set of n records drawn from the prior. Smaller is better. It
// returns rr.ErrSingular for non-invertible matrices, for which the
// inversion estimator is undefined.
func Utility(m *rr.Matrix, prior []float64, records int) (float64, error) {
	return NewWorkspace().Utility(m, prior, records)
}

// Evaluation bundles the objectives for one RR matrix under a fixed prior
// and record count — the point the optimizer plots in objective space.
type Evaluation struct {
	// Privacy is 1 − A (Equation 8); larger is better.
	Privacy float64
	// Utility is the average MSE (Equation 10); smaller is better.
	Utility float64
	// MaxPosterior is the worst-case per-record accuracy of Equation 9.
	MaxPosterior float64
	// Extra holds the values of any additional configured objectives (see
	// Objective), in configuration order and in canonical minimized form:
	// a Maximize objective's value is stored negated, so that smaller is
	// better on every entry exactly as for Utility. Nil for the canonical
	// two-objective evaluation — the zero-allocation fast path.
	Extra []float64
}

// Evaluate computes both objectives and the bound value in one pass on a
// throwaway Workspace; callers in hot loops should hold a Workspace of their
// own and call its Evaluate directly.
func Evaluate(m *rr.Matrix, prior []float64, records int) (Evaluation, error) {
	return NewWorkspace().Evaluate(m, prior, records)
}
