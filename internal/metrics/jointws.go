package metrics

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/rr"
)

// JointWorkspace is the multi-attribute analogue of Workspace: the reusable
// scratch behind the fused record-level objective evaluation. Where the 1-D
// workspace holds one n×n matrix's intermediates, the joint workspace holds
// the Kronecker-factored ones — per-attribute factor views, the factored
// inverse ⊗M_d⁻¹ and its element-wise square, and a handful of product-space
// vectors (P*, per-row MAP maxima, P̂, the Theorem-6 quadratic form, and
// two contraction scratches) — so that steady-state evaluation performs
// zero heap allocations, whether or not the attribute sizes differ, and
// never materializes the N×N joint channel (N = ∏n_d).
//
// Everything is computed from the factors:
//
//   - P* = (⊗M_d)·P by mode contractions, O(N·Σn_d) instead of O(N²);
//   - the MAP adversary's per-row maxima max_i θ_{j,i}·P_i by the same
//     contraction over the (max, ×) semiring — valid because every θ and P
//     entry is non-negative, so the maximum commutes through the per-factor
//     products. Both chains run in one pass over the factors
//     (Kron.SumMaxMulVecInto). One sweep over those maxima yields both the
//     accuracy of Equation 8 and the worst-case posterior of Equation 9,
//     exactly as in the 1-D fused path;
//   - the closed-form MSE (Theorem 6) from the factored inverse:
//     (⊗M_d)⁻¹ = ⊗M_d⁻¹ needs only d small LU inverses, and the per-category
//     quadratic form Σ_i β²_{k,i}·P*_i is ((⊗M_d⁻¹)∘²)·P* because squaring
//     commutes with the Kronecker product.
//
// EvaluateWithin is the search's entry point: it sweeps first and inverts
// only a tuple that meets the bound, so a child that needs repair costs one
// sweep, not a full evaluation.
//
// The property tests pin this workspace to 1e-12 against a dense
// materialization of the joint channel, which lives only in the tests.
//
// A JointWorkspace is not safe for concurrent use; give each worker
// goroutine its own.
type JointWorkspace struct {
	dims    []int
	size    int
	factors []*matrix.Dense
	theta   *matrix.Kron
	inv     *matrix.Kron
	invSq   *matrix.Kron
	lu      *matrix.LU

	pStar  []float64
	rowMax []float64
	pHat   []float64
	quad   []float64
	tmp    []float64
	tmpMax []float64
}

// NewJointWorkspace returns an empty joint evaluation workspace. Buffers are
// sized lazily on first use and re-sized whenever the attribute sizes change.
func NewJointWorkspace() *JointWorkspace {
	return &JointWorkspace{lu: matrix.NewLU()}
}

// bind points the workspace at a matrix tuple, reusing every buffer when the
// per-attribute sizes are unchanged.
func (ws *JointWorkspace) bind(ms []*rr.Matrix) error {
	if len(ms) == 0 {
		return fmt.Errorf("%w: no attributes", ErrShape)
	}
	same := len(ms) == len(ws.dims)
	for d, m := range ms {
		if m == nil {
			return fmt.Errorf("%w: nil matrix for attribute %d", ErrShape, d)
		}
		if same && m.N() != ws.dims[d] {
			same = false
		}
	}
	ws.factors = ws.factors[:0]
	for _, m := range ms {
		ws.factors = append(ws.factors, m.DenseView())
	}
	if same {
		return ws.theta.Reset(ws.factors)
	}
	ws.dims = make([]int, len(ms))
	size := 1
	for d, m := range ms {
		ws.dims[d] = m.N()
		size *= m.N()
	}
	ws.size = size
	theta, err := matrix.NewKron(ws.factors...)
	if err != nil {
		return err
	}
	ws.theta = theta
	ws.inv = matrix.KronZeros(ws.dims)
	ws.invSq = matrix.KronZeros(ws.dims)
	ws.pStar = make([]float64, size)
	ws.rowMax = make([]float64, size)
	ws.pHat = make([]float64, size)
	ws.quad = make([]float64, size)
	ws.tmp = make([]float64, size)
	ws.tmpMax = make([]float64, size)
	return nil
}

func validateJoint(size int, joint []float64) error {
	if len(joint) != size {
		return fmt.Errorf("%w: joint of length %d for %d cells", ErrShape, len(joint), size)
	}
	var sum float64
	for i, v := range joint {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: joint[%d] = %v", ErrBadPrior, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: joint sums to %v", ErrBadPrior, sum)
	}
	return nil
}

// factoredInverse fills ws.inv and ws.invSq from the bound factors, mapping
// a singular factor to rr.ErrSingular exactly as the 1-D inversion path does.
func (ws *JointWorkspace) factoredInverse() error {
	if err := ws.theta.InverseInto(ws.inv, ws.lu); err != nil {
		if errors.Is(err, matrix.ErrSingular) {
			return fmt.Errorf("%w: %v", rr.ErrSingular, err)
		}
		return err
	}
	return ws.inv.SquareInto(ws.invSq)
}

// mapSweep fills ws.pStar and ws.rowMax in one fused contraction and
// sweeps them once, returning the MAP adversary's expected accuracy
// A = Σ_j max_i θ_{j,i}·P_i and the worst-case record-level posterior
// max_j (max_i θ_{j,i}·P_i)/P*_j.
func (ws *JointWorkspace) mapSweep(joint []float64) (a, mp float64, err error) {
	if err := ws.theta.SumMaxMulVecInto(ws.pStar, ws.rowMax, joint, ws.tmp, ws.tmpMax); err != nil {
		return 0, 0, err
	}
	for j, best := range ws.rowMax {
		a += best
		if ps := ws.pStar[j]; ps > 0 {
			if q := best / ps; q > mp {
				mp = q
			}
		}
	}
	return a, mp, nil
}

// utilityFromPStar computes the Theorem-6 average MSE of the joint inversion
// estimate from an already-filled ws.pStar, ws.inv and ws.invSq.
func (ws *JointWorkspace) utilityFromPStar(records int) (float64, error) {
	if err := ws.inv.MulVecInto(ws.pHat, ws.pStar, ws.tmp); err != nil {
		return 0, err
	}
	if err := ws.invSq.MulVecInto(ws.quad, ws.pStar, ws.tmp); err != nil {
		return 0, err
	}
	invN := 1 / float64(records)
	var sum float64
	for k, q := range ws.quad {
		mean := ws.pHat[k]
		mse := invN * (q - mean*mean)
		if mse < 0 {
			mse = 0 // guard against round-off on near-deterministic matrices
		}
		sum += mse
	}
	return sum / float64(ws.size), nil
}

// Evaluate computes the record-level privacy, the joint-reconstruction
// utility, and the worst-case posterior in one fused pass over the factored
// representation, reusing the workspace buffers. It matches the 1-D metrics
// over the dense joint channel to floating-point round-off (the property
// tests pin 1e-12) at O(N·Σn_d) instead of O(N²)+O(N³) cost.
func (ws *JointWorkspace) Evaluate(ms []*rr.Matrix, joint []float64, records int) (Evaluation, error) {
	ev, _, err := ws.EvaluateWithin(ms, joint, records, math.Inf(1))
	return ev, err
}

// EvaluateWithin is Evaluate for a tuple that must meet the record-level
// posterior bound max P(X-record | Y-record) ≤ delta, with MeetsBound's
// tolerance. It sweeps first: a tuple that misses the bound returns false
// and a zero Evaluation without inverting anything, so a singular one is
// not an error here. A tuple that meets it is finished from that same sweep
// and returns true with the Evaluation that Evaluate computes, or its error
// (rr.ErrSingular for a singular tuple).
func (ws *JointWorkspace) EvaluateWithin(ms []*rr.Matrix, joint []float64, records int, delta float64) (Evaluation, bool, error) {
	if err := ws.bind(ms); err != nil {
		return Evaluation{}, false, err
	}
	if err := validateJoint(ws.size, joint); err != nil {
		return Evaluation{}, false, err
	}
	if records <= 0 {
		return Evaluation{}, false, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	a, mp, err := ws.mapSweep(joint)
	if err != nil {
		return Evaluation{}, false, err
	}
	if mp > delta+BoundTolerance {
		return Evaluation{}, false, nil
	}
	if err := ws.factoredInverse(); err != nil {
		return Evaluation{}, false, err
	}
	util, err := ws.utilityFromPStar(records)
	if err != nil {
		return Evaluation{}, false, err
	}
	return Evaluation{Privacy: 1 - a, Utility: util, MaxPosterior: mp}, true, nil
}

// Privacy returns the record-level privacy 1 − A. Unlike Evaluate it needs
// no inverse, so it is defined for singular tuples.
func (ws *JointWorkspace) Privacy(ms []*rr.Matrix, joint []float64) (float64, error) {
	if err := ws.bind(ms); err != nil {
		return 0, err
	}
	if err := validateJoint(ws.size, joint); err != nil {
		return 0, err
	}
	a, _, err := ws.mapSweep(joint)
	if err != nil {
		return 0, err
	}
	return 1 - a, nil
}

// Utility returns the average closed-form MSE of the joint inversion
// estimate (Theorem 6 over the product space) for a data set of the given
// size, computed entirely from the factors.
func (ws *JointWorkspace) Utility(ms []*rr.Matrix, joint []float64, records int) (float64, error) {
	if err := ws.bind(ms); err != nil {
		return 0, err
	}
	if err := validateJoint(ws.size, joint); err != nil {
		return 0, err
	}
	if records <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	if err := ws.factoredInverse(); err != nil {
		return 0, err
	}
	if err := ws.theta.MulVecInto(ws.pStar, joint, ws.tmp); err != nil {
		return 0, err
	}
	return ws.utilityFromPStar(records)
}

// MaxPosterior returns the worst-case record-level posterior
// max P(X-record | Y-record) without the joint channel or any inverse —
// just one fused contraction and a sweep. It is the bound check the repair
// bisection of OptimizeMulti runs dozens of times per infeasible child.
func (ws *JointWorkspace) MaxPosterior(ms []*rr.Matrix, joint []float64) (float64, error) {
	if err := ws.bind(ms); err != nil {
		return 0, err
	}
	if err := validateJoint(ws.size, joint); err != nil {
		return 0, err
	}
	_, mp, err := ws.mapSweep(joint)
	if err != nil {
		return 0, err
	}
	return mp, nil
}

// MeetsBound reports whether the tuple satisfies the record-level posterior
// bound max P(X-record | Y-record) ≤ delta under the joint prior, with the
// same tolerance as the 1-D Workspace and EvaluateWithin.
func (ws *JointWorkspace) MeetsBound(ms []*rr.Matrix, joint []float64, delta float64) (bool, error) {
	mp, err := ws.MaxPosterior(ms, joint)
	if err != nil {
		return false, err
	}
	return mp <= delta+BoundTolerance, nil
}

// Size returns the product-space cell count bound by the last successful
// call, or 0 before any.
func (ws *JointWorkspace) Size() int { return ws.size }
