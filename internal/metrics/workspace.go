package metrics

import (
	"fmt"

	"optrr/internal/matrix"
	"optrr/internal/rr"
)

// Workspace is the reusable scratch behind the fused objective evaluation.
// The optimizer calls Evaluate thousands of times per search on same-sized
// matrices; a Workspace owns every intermediate the metrics need (the
// disguised distribution P*, the LU factorization, the inverse M⁻¹) so that
// steady-state evaluation performs zero heap allocations.
//
// The fused path is bit-for-bit identical to the composed
// Privacy/Utility/MaxPosterior functions: it runs the same floating-point
// operations in the same order, merely sharing the intermediates —
// one prior validation instead of three, one P* instead of two, one matrix
// inverse, and the MAP accuracy and worst-case posterior extracted from a
// single sweep over θ·P (the per-row maximum of θ_{j,i}·P_i is both the
// accuracy summand of Equation 8 and, divided by P*_j, the row's posterior
// maximum for Equation 9).
//
// A Workspace is not safe for concurrent use; give each worker goroutine its
// own.
type Workspace struct {
	n     int
	pStar []float64
	lu    *matrix.LU
	inv   *matrix.Dense
}

// NewWorkspace returns an empty evaluation workspace. Buffers are sized
// lazily on first use and re-sized whenever the category count changes.
func NewWorkspace() *Workspace {
	return &Workspace{lu: matrix.NewLU()}
}

func (ws *Workspace) resize(n int) {
	if ws.n == n {
		return
	}
	ws.n = n
	ws.pStar = make([]float64, n)
	ws.inv = matrix.New(n, n)
}

// Evaluate computes both objectives and the bound value in one fused pass,
// reusing the workspace buffers. The result is identical to the composed
// Privacy/Utility/MaxPosterior path (see the package test
// TestWorkspaceEvaluateMatchesComposed, which asserts bitwise equality).
func (ws *Workspace) Evaluate(m *rr.Matrix, prior []float64, records int) (Evaluation, error) {
	if err := validatePrior(m, prior); err != nil {
		return Evaluation{}, err
	}
	if records <= 0 {
		return Evaluation{}, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	n := m.N()
	ws.resize(n)
	if err := m.DisguisedDistributionInto(ws.pStar, prior); err != nil {
		return Evaluation{}, err
	}

	// One sweep over θ·P: the per-row maximum θ_{j,i}·P_i is the accuracy
	// summand (Equation 8); divided by P*_j it is the row's largest
	// posterior (Equation 9) — division by a positive constant preserves
	// the argmax, so no separate posterior matrix is needed.
	var a, mp float64
	for j := 0; j < n; j++ {
		row := m.ThetaRow(j)
		var best float64
		for i, th := range row {
			if v := th * prior[i]; v > best {
				best = v
			}
		}
		a += best
		if ws.pStar[j] > 0 {
			if q := best / ws.pStar[j]; q > mp {
				mp = q
			}
		}
	}

	// Closed-form MSE (Theorem 6) from the reusable inverse.
	if err := m.FactorizeInto(ws.lu); err != nil {
		return Evaluation{}, err
	}
	if err := ws.lu.InverseInto(ws.inv); err != nil {
		return Evaluation{}, err
	}
	invN := 1 / float64(records)
	var sum float64
	for k := 0; k < n; k++ {
		var quad, mean float64
		bk := ws.inv.RowView(k)
		for i, b := range bk {
			quad += b * b * ws.pStar[i]
			mean += b * ws.pStar[i]
		}
		mse := invN * (quad - mean*mean)
		if mse < 0 {
			mse = 0 // guard against round-off on near-deterministic matrices
		}
		sum += mse
	}

	return Evaluation{Privacy: 1 - a, Utility: sum / float64(n), MaxPosterior: mp}, nil
}

// PStar returns the disguised distribution P* computed by the last
// successful Evaluate call. The slice aliases the workspace buffer: it is
// valid until the next call on the workspace and must not be mutated. It is
// the intermediate extra objectives (see Objective) reuse instead of
// re-deriving it from the matrix.
func (ws *Workspace) PStar() []float64 { return ws.pStar }

// Inverse returns the matrix inverse M⁻¹ computed by the last successful
// Evaluate call, under the same aliasing contract as PStar.
func (ws *Workspace) Inverse() *matrix.Dense { return ws.inv }

// MaxPosterior computes max_{Y,X} P(X | Y) without materializing the
// posterior matrix, reusing the workspace's P* buffer. Identical to the
// package-level MaxPosterior.
func (ws *Workspace) MaxPosterior(m *rr.Matrix, prior []float64) (float64, error) {
	if err := validatePrior(m, prior); err != nil {
		return 0, err
	}
	n := m.N()
	ws.resize(n)
	if err := m.DisguisedDistributionInto(ws.pStar, prior); err != nil {
		return 0, err
	}
	var mp float64
	for j := 0; j < n; j++ {
		if ws.pStar[j] <= 0 {
			continue
		}
		row := m.ThetaRow(j)
		var best float64
		for i, th := range row {
			if v := th * prior[i]; v > best {
				best = v
			}
		}
		if q := best / ws.pStar[j]; q > mp {
			mp = q
		}
	}
	return mp, nil
}

// MeetsBound reports whether m satisfies max P(X | Y) ≤ delta under the
// given prior — the allocation-free form of the package-level MeetsBound.
func (ws *Workspace) MeetsBound(m *rr.Matrix, prior []float64, delta float64) (bool, error) {
	mp, err := ws.MaxPosterior(m, prior)
	if err != nil {
		return false, err
	}
	return mp <= delta+BoundTolerance, nil
}
