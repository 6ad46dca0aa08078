package metrics

import "optrr/internal/rr"

// Multi-dimensional metrics: the paper's future work (Section VII) extended
// from its one-dimensional definitions. A record now has d attributes, each
// disguised independently with its own RR matrix; the adversary observes the
// full disguised record and estimates the full original record, and utility
// is the MSE of the reconstructed joint distribution. The joint disguise
// channel is the Kronecker product of the per-attribute matrices, so both
// metrics reduce to their one-dimensional forms over the product space.
//
// The package-level Joint* functions run on the Kronecker-factored
// JointWorkspace — O(N·Σn_d) per evaluation, no N×N matrix, no product-space
// cap. The dense joint channel the factored path is property-tested against
// lives in the package's tests.

// JointPrivacy returns the record-level privacy of disguising d attributes
// independently: 1 minus the accuracy of the MAP adversary who observes the
// full disguised record and estimates the full original record, under the
// given joint prior (row-major over the product space). It runs on a
// throwaway factored workspace; hot loops should hold a JointWorkspace.
func JointPrivacy(ms []*rr.Matrix, joint []float64) (float64, error) {
	return NewJointWorkspace().Privacy(ms, joint)
}

// JointUtility returns the average closed-form MSE of the per-axis inversion
// estimate of the joint distribution (Theorem 6 applied over the product
// space), for a data set of the given size.
func JointUtility(ms []*rr.Matrix, joint []float64, records int) (float64, error) {
	return NewJointWorkspace().Utility(ms, joint, records)
}

// JointMaxPosterior returns the worst-case record-level posterior
// max P(X-record | Y-record) — the multi-dimensional analogue of the bound
// of Equation (9). Note that per-attribute bounds δ_d do not compose
// multiplicatively in general; this is the exact joint value.
func JointMaxPosterior(ms []*rr.Matrix, joint []float64) (float64, error) {
	return NewJointWorkspace().MaxPosterior(ms, joint)
}

// JointEvaluate bundles the three joint metrics in one fused factored pass.
func JointEvaluate(ms []*rr.Matrix, joint []float64, records int) (Evaluation, error) {
	return NewJointWorkspace().Evaluate(ms, joint, records)
}
