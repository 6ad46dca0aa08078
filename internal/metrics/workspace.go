package metrics

import (
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/rr"
)

// Workspace is the reusable scratch behind the fused objective evaluation.
// The optimizer calls EvaluateWithin thousands of times per search on
// same-sized matrices; a Workspace owns every intermediate the metrics need
// (the disguised distribution P*, the LU factorization, the inverse M⁻¹ and
// the per-category MSE) so that steady-state evaluation performs zero heap
// allocations.
//
// Each formula runs once per evaluation:
//
//   - one sweep over θ·P (mapSweep): the per-row maximum max_i θ_{j,i}·P_i
//     is both the accuracy summand of Equation 8 and, divided by P*_j, the
//     row's largest posterior for Equation 9 — division by a positive
//     constant is monotone even after rounding, so no posterior matrix is
//     needed;
//   - one Theorem-6 kernel, rr.InversionMSEInto, over the workspace's
//     inverse, shared with rr.Matrix.InversionMSE.
//
// The package-level Accuracy, Privacy, MaxPosterior, MeetsBound, Utility
// and Evaluate run on a throwaway Workspace, so every path computes the same
// bits; the tests pin them against slow oracles that spell the formulas out.
//
// EvaluateWithin is the search's entry point: it sweeps first and inverts
// only a matrix that meets the bound, so a child that needs repair costs one
// sweep, not a full evaluation.
//
// A Workspace is not safe for concurrent use; give each worker goroutine its
// own.
type Workspace struct {
	n     int
	pStar []float64
	mse   []float64
	lu    *matrix.LU
	inv   *matrix.Dense
}

// NewWorkspace returns an empty evaluation workspace. Buffers are sized
// lazily on first use and re-sized whenever the category count changes.
func NewWorkspace() *Workspace {
	return &Workspace{lu: matrix.NewLU()}
}

// bind validates the prior against m and fills ws.pStar = M·P, re-sizing
// the buffers when the category count changes.
func (ws *Workspace) bind(m *rr.Matrix, prior []float64) error {
	if err := validatePrior(m, prior); err != nil {
		return err
	}
	if n := m.N(); ws.n != n {
		ws.n = n
		ws.pStar = make([]float64, n)
		ws.mse = make([]float64, n)
		ws.inv = matrix.New(n, n)
	}
	return m.DisguisedDistributionInto(ws.pStar, prior)
}

// mapSweep sweeps θ·P once against the bound ws.pStar, returning the MAP
// adversary's expected accuracy A = Σ_j max_i θ_{j,i}·P_i and the worst-case
// posterior max_j (max_i θ_{j,i}·P_i)/P*_j. A row with P*_j = 0 adds its
// zero maximum to A and is skipped for the posterior.
func (ws *Workspace) mapSweep(m *rr.Matrix, prior []float64) (a, mp float64) {
	for j, ps := range ws.pStar {
		var best float64
		for i, th := range m.ThetaRow(j) {
			if v := th * prior[i]; v > best {
				best = v
			}
		}
		a += best
		if ps > 0 {
			if q := best / ps; q > mp {
				mp = q
			}
		}
	}
	return a, mp
}

// utilityFromPStar inverts m into ws.inv, fills ws.mse with the Theorem-6
// per-category MSE from the bound ws.pStar, and returns its average.
func (ws *Workspace) utilityFromPStar(m *rr.Matrix, records int) (float64, error) {
	if err := m.FactorizeInto(ws.lu); err != nil {
		return 0, err
	}
	if err := ws.lu.InverseInto(ws.inv); err != nil {
		return 0, err
	}
	rr.InversionMSEInto(ws.mse, ws.inv, ws.pStar, records)
	var sum float64
	for _, v := range ws.mse {
		sum += v
	}
	return sum / float64(ws.n), nil
}

// Evaluate computes both objectives and the bound value in one fused pass,
// reusing the workspace buffers.
func (ws *Workspace) Evaluate(m *rr.Matrix, prior []float64, records int) (Evaluation, error) {
	ev, _, err := ws.EvaluateWithin(m, prior, records, math.Inf(1))
	return ev, err
}

// EvaluateWithin is Evaluate for a matrix that must meet the posterior bound
// max P(X | Y) ≤ delta, with MeetsBound's tolerance. It sweeps first: a
// matrix that misses the bound returns false and a zero Evaluation without
// inverting anything, so a singular one is not an error here. A matrix that
// meets it is finished from that same sweep and returns true with the
// Evaluation that Evaluate computes, or its error (rr.ErrSingular for a
// singular matrix).
func (ws *Workspace) EvaluateWithin(m *rr.Matrix, prior []float64, records int, delta float64) (Evaluation, bool, error) {
	if err := ws.bind(m, prior); err != nil {
		return Evaluation{}, false, err
	}
	if records <= 0 {
		return Evaluation{}, false, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	a, mp := ws.mapSweep(m, prior)
	if mp > delta+BoundTolerance {
		return Evaluation{}, false, nil
	}
	util, err := ws.utilityFromPStar(m, records)
	if err != nil {
		return Evaluation{}, false, err
	}
	return Evaluation{Privacy: 1 - a, Utility: util, MaxPosterior: mp}, true, nil
}

// Privacy returns 1 − A (Equation 8). Unlike Evaluate it needs no inverse,
// so it is defined for singular matrices.
func (ws *Workspace) Privacy(m *rr.Matrix, prior []float64) (float64, error) {
	if err := ws.bind(m, prior); err != nil {
		return 0, err
	}
	a, _ := ws.mapSweep(m, prior)
	return 1 - a, nil
}

// Utility returns the average closed-form MSE of the inversion estimate
// (Theorem 6) for a data set of the given size, or rr.ErrSingular.
func (ws *Workspace) Utility(m *rr.Matrix, prior []float64, records int) (float64, error) {
	if err := ws.bind(m, prior); err != nil {
		return 0, err
	}
	if records <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	return ws.utilityFromPStar(m, records)
}

// MaxPosterior returns the worst-case posterior max_{Y,X} P(X | Y) from one
// sweep, without a posterior matrix or any inverse.
func (ws *Workspace) MaxPosterior(m *rr.Matrix, prior []float64) (float64, error) {
	if err := ws.bind(m, prior); err != nil {
		return 0, err
	}
	_, mp := ws.mapSweep(m, prior)
	return mp, nil
}

// MeetsBound reports whether m satisfies max P(X | Y) ≤ delta under the
// given prior, with the tolerance BoundTolerance.
func (ws *Workspace) MeetsBound(m *rr.Matrix, prior []float64, delta float64) (bool, error) {
	mp, err := ws.MaxPosterior(m, prior)
	if err != nil {
		return false, err
	}
	return mp <= delta+BoundTolerance, nil
}

// PStar returns the disguised distribution P* computed by the last
// successful call. The slice aliases the workspace buffer: it is valid until
// the next call on the workspace and must not be mutated. It is the
// intermediate extra objectives (see Objective) reuse instead of re-deriving
// it from the matrix.
func (ws *Workspace) PStar() []float64 { return ws.pStar }

// Inverse returns the matrix inverse M⁻¹ computed by the last successful
// Evaluate or Utility call, under the same aliasing contract as PStar.
func (ws *Workspace) Inverse() *matrix.Dense { return ws.inv }
