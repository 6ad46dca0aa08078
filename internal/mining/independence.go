package mining

import (
	"fmt"
	"math"

	"optrr/internal/mathx"
	"optrr/internal/rr"
)

// Statistical independence testing on disguised data: a classic
// privacy-preserving analysis task — "are these two sensitive attributes
// associated?" — answered without ever seeing original values. The
// two-attribute joint is reconstructed by per-axis inversion, clipped onto
// the simplex, and a chi-square statistic is computed against the product of
// its marginals. The effective sample size is adjusted for the variance
// inflation the disguise introduces, so the test keeps approximately its
// nominal level (see EffectiveSampleFactor).

// IndependenceResult reports a chi-square independence test.
type IndependenceResult struct {
	// Statistic is the chi-square value at the effective sample size.
	Statistic float64
	// DegreesOfFreedom is (n_a − 1)·(n_b − 1).
	DegreesOfFreedom int
	// PValue is the survival probability of the statistic.
	PValue float64
	// EffectiveN is the noise-adjusted sample size used by the statistic.
	EffectiveN float64
	// CramersV is the effect-size measure √(χ²/(N·(min(n_a,n_b)−1))).
	CramersV float64
}

// Dependent reports whether independence is rejected at the given level
// (e.g. 0.05).
func (r IndependenceResult) Dependent(alpha float64) bool {
	return r.PValue < alpha
}

// EffectiveSampleFactor estimates how much the randomized response of the
// two attributes inflates the variance of reconstructed joint cells: the
// reconstruction error of a cell probability scales with the squared
// Frobenius-like norm of the inverse matrices. We use the conservative
// factor 1/(‖A⁻¹‖₁·‖B⁻¹‖₁)², where ‖·‖₁ is the maximum absolute column
// sum: identity matrices give factor 1 (no loss), noisier matrices shrink
// the effective sample accordingly.
func EffectiveSampleFactor(a, b *rr.Matrix) (float64, error) {
	na, err := a.Inverse()
	if err != nil {
		return 0, err
	}
	nb, err := b.Inverse()
	if err != nil {
		return 0, err
	}
	f := na.Norm1() * nb.Norm1()
	return 1 / (f * f), nil
}

// ChiSquareIndependence tests the independence of attributes attrA and
// attrB from disguised records. The matrices in mr must be invertible for
// the two attributes involved.
func ChiSquareIndependence(mr *MultiRR, disguised [][]int, attrA, attrB int) (IndependenceResult, error) {
	if attrA == attrB {
		return IndependenceResult{}, fmt.Errorf("%w: testing an attribute against itself", ErrSchema)
	}
	for _, d := range []int{attrA, attrB} {
		if d < 0 || d >= mr.Attributes() {
			return IndependenceResult{}, fmt.Errorf("%w: attribute %d", ErrSchema, d)
		}
	}
	joint, err := mr.estimateAxes(disguised, []int{attrA, attrB})
	if err != nil {
		return IndependenceResult{}, err
	}
	joint = rr.Clip(joint)

	ma, mb := mr.Matrix(attrA), mr.Matrix(attrB)
	na, nb := ma.N(), mb.N()
	rowMarg := make([]float64, na)
	colMarg := make([]float64, nb)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			v := joint[i*nb+j]
			rowMarg[i] += v
			colMarg[j] += v
		}
	}

	factor, err := EffectiveSampleFactor(ma, mb)
	if err != nil {
		return IndependenceResult{}, err
	}
	effN := float64(len(disguised)) * factor

	var chi2 float64
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			expected := rowMarg[i] * colMarg[j]
			if expected <= 0 {
				continue
			}
			d := joint[i*nb+j] - expected
			chi2 += effN * d * d / expected
		}
	}
	dof := (na - 1) * (nb - 1)
	minDim := na
	if nb < minDim {
		minDim = nb
	}
	cv := 0.0
	if minDim > 1 && effN > 0 {
		cv = math.Sqrt(chi2 / (effN * float64(minDim-1)))
	}
	return IndependenceResult{
		Statistic:        chi2,
		DegreesOfFreedom: dof,
		PValue:           mathx.ChiSquareSurvival(float64(dof), chi2),
		EffectiveN:       effN,
		CramersV:         cv,
	}, nil
}
