package rr

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/obs"
)

// This file implements the two distribution-reconstruction estimators of
// Section III-A: the inversion approach (Theorem 1) and the iterative
// EM-style approach of Agrawal et al. (Equation 3).

// Estimator errors.
var (
	// ErrNoConvergence reports that the iterative estimator did not reach
	// the requested tolerance within its iteration budget.
	ErrNoConvergence = errors.New("rr: iterative estimator did not converge")
	// ErrEmptyData reports an estimation request over zero records.
	ErrEmptyData = errors.New("rr: no records to estimate from")
)

// EstimateInversion reconstructs the original distribution from disguised
// records via P̂ = M⁻¹·P̂* (Theorem 1). The estimate is an unbiased MLE but
// individual components may fall outside [0, 1] for small samples; callers
// that need a proper distribution can pass the result through Clip.
func (m *Matrix) EstimateInversion(disguised []int) ([]float64, error) {
	pStar, err := m.frequencies(disguised)
	if err != nil {
		return nil, err
	}
	return m.EstimateInversionFromDistribution(pStar)
}

// EstimateInversionFromDistribution applies the inversion estimator to an
// already-computed disguised distribution P̂*: one triangular solve through
// the matrix's cached factorization.
func (m *Matrix) EstimateInversionFromDistribution(pStar []float64) ([]float64, error) {
	if len(pStar) != m.N() {
		return nil, fmt.Errorf("%w: distribution of length %d for %d categories", ErrShape, len(pStar), m.N())
	}
	inv := m.inverted()
	if inv.err != nil {
		return nil, inv.err
	}
	return inv.lu.SolveVec(pStar)
}

// inversion is what the inversion estimator and its Theorem-6 variance run
// on: the LU factorization of a matrix and the inverse built from it, or
// the error that refused a singular matrix. It is immutable once built.
type inversion struct {
	lu      *matrix.LU
	inverse *matrix.Dense
	err     error
}

// inverted returns the matrix's inversion, built on first use and cached
// until SetColumns or UnmarshalJSON changes the entries. A cached solve is
// bit for bit the one-shot matrix.Dense.Solve, which runs the same
// factorization arithmetic. Concurrent first callers race benignly: each
// builds an inversion of the same entries, so whichever store wins serves
// identical estimates.
func (m *Matrix) inverted() *inversion {
	if inv := m.inv.Load(); inv != nil {
		return inv
	}
	inv := &inversion{lu: matrix.NewLU()}
	if inv.err = m.FactorizeInto(inv.lu); inv.err == nil {
		inv.inverse, inv.err = inv.lu.Inverse()
	}
	m.inv.Store(inv)
	return inv
}

// InversionMSE returns the closed-form MSE of the inversion estimate of
// each category probability (Theorem 6) over records reports drawn from
// the original distribution p:
//
//	MSE(c_k) = Σ_i β²_{k,i}·Var(N_i/N) + Σ_{i≠j} β_{k,i}β_{k,j}·Cov(N_i/N, N_j/N)
//	         = (1/N)·(Σ_i β²_{k,i}·P*_i − P_k²),
//
// where β is M⁻¹ (the cached inverse) and the simplification uses
// Var(N_i/N) = P*_i(1−P*_i)/N, Cov(N_i/N, N_j/N) = −P*_i·P*_j/N and
// Σ_i β_{k,i}·P*_i = P_k. A negative, NaN or infinite entry of p is
// refused; callers that need p to sum to one check that themselves.
func (m *Matrix) InversionMSE(p []float64, records int) ([]float64, error) {
	if records <= 0 {
		return nil, fmt.Errorf("%w: %d records", ErrEmptyData, records)
	}
	for i, v := range p {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("rr: p[%d] = %v is not a probability", i, v)
		}
	}
	pStar, err := m.DisguisedDistribution(p)
	if err != nil {
		return nil, err
	}
	inv := m.inverted()
	if inv.err != nil {
		return nil, inv.err
	}
	out := make([]float64, len(pStar))
	InversionMSEInto(out, inv.inverse, pStar, records)
	return out, nil
}

// InversionMSEInto is the Theorem-6 loop behind InversionMSE: it writes
// MSE(c_k) = (1/N)·(Σ_i β²_{k,i}·P*_i − (Σ_i β_{k,i}·P*_i)²) into dst[k] for
// every row k of inverse = M⁻¹, given the disguised distribution pStar = M·P
// and N = records. dst and pStar have the inverse's order and records is
// positive; the caller has validated both. A value that round-off drives
// below zero (near-deterministic matrices) is stored as zero.
func InversionMSEInto(dst []float64, inverse *matrix.Dense, pStar []float64, records int) {
	invN := 1 / float64(records)
	for k := range dst {
		var quad, mean float64
		for i, b := range inverse.RowView(k) {
			quad += b * b * pStar[i]
			mean += b * pStar[i]
		}
		mse := invN * (quad - mean*mean)
		if mse < 0 {
			mse = 0 // guard against round-off on near-deterministic matrices
		}
		dst[k] = mse
	}
}

// HalfWidths returns the per-category half-widths z·√MSE_k of approximate
// normal confidence intervals around an inversion estimate from records
// reports, with the InversionMSE evaluated at p (the clipped estimate, for
// a reconstruction). z must be a positive finite normal quantile; 1.96
// gives ~95% intervals.
func (m *Matrix) HalfWidths(p []float64, records int, z float64) ([]float64, error) {
	// !(z > 0) rather than z <= 0: NaN fails every comparison, so a NaN z
	// would otherwise sail through and poison every half-width.
	if !(z > 0) || math.IsInf(z, 1) {
		return nil, fmt.Errorf("rr: z must be a positive finite number, got %v", z)
	}
	mses, err := m.InversionMSE(p, records)
	if err != nil {
		return nil, err
	}
	for k, v := range mses {
		if v > 0 {
			mses[k] = z * math.Sqrt(v)
		}
	}
	return mses, nil
}

// IterativeOptions configures EstimateIterative.
type IterativeOptions struct {
	// MaxIterations bounds the iteration count. Zero means the default, 10000.
	MaxIterations int
	// Tolerance is the L∞ distance between consecutive iterates that counts
	// as convergence. Zero means the default, 1e-10.
	Tolerance float64
	// Initial is the starting distribution; nil means uniform.
	Initial []float64
	// Recorder, if non-nil and enabled, receives one "estimator.iteration"
	// event per Bayes-update step with the L∞ convergence delta, and a
	// final "estimator.done" event. Nil costs nothing.
	Recorder obs.Recorder
}

func (o IterativeOptions) withDefaults() IterativeOptions {
	if o.MaxIterations == 0 {
		o.MaxIterations = 10000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-10
	}
	return o
}

// EstimateIterative reconstructs the original distribution with the
// iterative Bayes-update procedure of Equation (3):
//
//	P^{k+1}(c_j) = Σ_i P*(c_i) · θ_{i,j}·P^k(c_j) / Σ_l θ_{i,l}·P^k(c_l)
//
// Iteration stops when two consecutive iterates are within Tolerance (L∞)
// or the budget is exhausted (then ErrNoConvergence is returned alongside
// the last iterate). Unlike inversion, the result is always a valid
// distribution, and the method works for singular matrices.
func (m *Matrix) EstimateIterative(disguised []int, opts IterativeOptions) ([]float64, error) {
	pStar, err := m.frequencies(disguised)
	if err != nil {
		return nil, err
	}
	return m.EstimateIterativeFromDistribution(pStar, opts)
}

// EstimateIterativeFromDistribution applies the iterative estimator to an
// already-computed disguised distribution P̂*. Every iterate is renormalized
// onto the probability simplex, so the result is a valid distribution even
// for singular matrices whose implied P* is zero on observed categories; if
// the observed distribution lies entirely on categories the matrix cannot
// produce, ErrShape is returned.
func (m *Matrix) EstimateIterativeFromDistribution(pStar []float64, opts IterativeOptions) ([]float64, error) {
	n := m.N()
	if len(pStar) != n {
		return nil, fmt.Errorf("%w: distribution of length %d for %d categories", ErrShape, len(pStar), n)
	}
	opts = opts.withDefaults()

	cur := make([]float64, n)
	if opts.Initial != nil {
		if len(opts.Initial) != n {
			return nil, fmt.Errorf("%w: initial distribution of length %d for %d categories", ErrShape, len(opts.Initial), n)
		}
		copy(cur, opts.Initial)
	} else {
		for j := range cur {
			cur[j] = 1 / float64(n)
		}
	}

	rec := obs.OrNop(opts.Recorder)
	next := make([]float64, n)
	denom := make([]float64, n)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		// denom[i] = Σ_l θ_{i,l}·P^k(c_l) = P*(c_i) implied by the iterate.
		for i := 0; i < n; i++ {
			var s float64
			for l := 0; l < n; l++ {
				s += m.m.At(i, l) * cur[l]
			}
			denom[i] = s
		}
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				if denom[i] == 0 {
					continue // no disguised mass can arrive at c_i
				}
				s += pStar[i] * m.m.At(i, j) * cur[j] / denom[i]
			}
			next[j] = s
		}
		// Skipping zero-denominator rows drops the observed mass pStar[i]
		// that the iterate says cannot occur (possible only for singular or
		// degenerate matrices). Renormalizing restores the documented
		// invariant that every iterate is a valid distribution; if no
		// observed mass is reachable at all there is nothing to condition
		// on, so fail rather than return an arbitrary iterate.
		var mass float64
		for j := 0; j < n; j++ {
			mass += next[j]
		}
		if mass <= 0 {
			return nil, fmt.Errorf("%w: observed distribution lies entirely on categories the matrix cannot produce", ErrShape)
		}
		if mass != 1 {
			inv := 1 / mass
			for j := 0; j < n; j++ {
				next[j] *= inv
			}
		}
		var maxDelta float64
		for j := 0; j < n; j++ {
			if d := math.Abs(next[j] - cur[j]); d > maxDelta {
				maxDelta = d
			}
		}
		cur, next = next, cur
		if rec.Enabled() {
			rec.Record("estimator.iteration", obs.Fields{
				"iter":  iter,
				"delta": maxDelta,
			})
		}
		if maxDelta < opts.Tolerance {
			if rec.Enabled() {
				rec.Record("estimator.done", obs.Fields{
					"iterations": iter + 1,
					"converged":  true,
					"delta":      maxDelta,
				})
			}
			out := make([]float64, n)
			copy(out, cur)
			return out, nil
		}
	}
	if rec.Enabled() {
		rec.Record("estimator.done", obs.Fields{
			"iterations": opts.MaxIterations,
			"converged":  false,
		})
	}
	out := make([]float64, n)
	copy(out, cur)
	return out, fmt.Errorf("%w after %d iterations", ErrNoConvergence, opts.MaxIterations)
}

// frequencies returns the MLE P̂* of the disguised distribution: category
// frequencies of the disguised records.
func (m *Matrix) frequencies(disguised []int) ([]float64, error) {
	if len(disguised) == 0 {
		return nil, ErrEmptyData
	}
	n := m.N()
	p := make([]float64, n)
	for k, rec := range disguised {
		if rec < 0 || rec >= n {
			return nil, fmt.Errorf("%w: record %d has category %d", ErrShape, k, rec)
		}
		p[rec]++
	}
	inv := 1 / float64(len(disguised))
	for i := range p {
		p[i] *= inv
	}
	return p, nil
}

// Clip projects an (possibly out-of-range) inversion estimate onto the
// probability simplex: negative entries are zeroed and the rest renormalized.
// If everything clips to zero, the uniform distribution is returned.
func Clip(p []float64) []float64 {
	out := make([]float64, len(p))
	var sum float64
	for i, v := range p {
		if v > 0 {
			out[i] = v
			sum += v
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
