package metrics

import (
	"math"

	"optrr/internal/rr"
)

// Information-theoretic privacy metrics. The paper's privacy metric is the
// Bayes-adversary accuracy; the PPDM literature also measures leakage as the
// mutual information between the original and disguised values. Both agree
// on the extremes (identity discloses everything; the totally-random matrix
// nothing) but weigh partial leakage differently, so having both lets users
// cross-check a matrix before deployment.

// Entropy returns the Shannon entropy (in bits) of a distribution. Zero
// entries contribute nothing.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

// MutualInformation returns I(X; Y) in bits for original X distributed as
// prior and Y the disguised value produced by m:
//
//	I(X;Y) = H(Y) − H(Y|X) = H(Y) − Σ_x P(x)·H(M column x).
func MutualInformation(m *rr.Matrix, prior []float64) (float64, error) {
	if err := validatePrior(m, prior); err != nil {
		return 0, err
	}
	pStar, err := m.DisguisedDistribution(prior)
	if err != nil {
		return 0, err
	}
	return mutualInformation(m, prior, pStar), nil
}

// mutualInformation is I(X;Y) from an already-computed P* = M·P, walking
// each column's entropy straight off the matrix. It is shared by
// MutualInformation and the mutual-information objective.
func mutualInformation(m *rr.Matrix, prior, pStar []float64) float64 {
	n := m.N()
	var hyGivenX float64
	for x, px := range prior {
		if px == 0 {
			continue
		}
		var h float64
		for j := 0; j < n; j++ {
			if v := m.Theta(j, x); v > 0 {
				h -= v * math.Log2(v)
			}
		}
		hyGivenX += px * h
	}
	mi := Entropy(pStar) - hyGivenX
	if mi < 0 {
		mi = 0 // round-off guard: MI is non-negative
	}
	return mi
}

// NormalizedLeakage returns I(X;Y)/H(X) ∈ [0, 1]: the fraction of the
// original value's uncertainty that observing the disguised value removes.
// It is 0 for a degenerate prior (nothing to learn).
func NormalizedLeakage(m *rr.Matrix, prior []float64) (float64, error) {
	mi, err := MutualInformation(m, prior)
	if err != nil {
		return 0, err
	}
	hx := Entropy(prior)
	if hx == 0 {
		return 0, nil
	}
	l := mi / hx
	if l > 1 {
		l = 1
	}
	return l, nil
}
