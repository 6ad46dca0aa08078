package metrics

import (
	"fmt"

	"optrr/internal/matrix"
	"optrr/internal/rr"
)

// Test oracles: slow, obviously correct reference implementations that the
// fused and Kronecker-factored production paths are pinned against.

// EvaluateComposed computes the same Evaluation as Evaluate through the three
// standalone metric functions: the reference the fused Workspace path is
// tested against, and the slow side of BenchmarkEvaluate/composed.
func EvaluateComposed(m *rr.Matrix, prior []float64, records int) (Evaluation, error) {
	priv, err := Privacy(m, prior)
	if err != nil {
		return Evaluation{}, err
	}
	util, err := Utility(m, prior, records)
	if err != nil {
		return Evaluation{}, err
	}
	mp, err := MaxPosterior(m, prior)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{Privacy: priv, Utility: util, MaxPosterior: mp}, nil
}

// maxJointCells guards the explicit dense materialization of JointChannel:
// the oracle is exact but O(cells²) in storage. The factored metrics have no
// such cap.
const maxJointCells = 1 << 14

// JointChannel materializes the Kronecker-product channel of the given
// per-attribute matrices as a single RR matrix over the product category
// space: the dense oracle JointWorkspace is property-tested against, and the
// slow side of BenchmarkJointEvaluate. The result's category
// c = ((i₁·n₂)+i₂)·n₃+… follows row-major (attribute-0 slowest) ordering,
// matching mining.MultiRR.Index.
func JointChannel(ms []*rr.Matrix) (*rr.Matrix, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrShape)
	}
	total := 1
	for _, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("%w: nil matrix", ErrShape)
		}
		total *= m.N()
	}
	if total > maxJointCells {
		return nil, fmt.Errorf("%w: joint space of %d cells exceeds limit %d", ErrShape, total, maxJointCells)
	}
	dense := matrix.New(total, total)
	// dense[j][i] = Π_d ms[d].Theta(j_d, i_d).
	for j := 0; j < total; j++ {
		jd := unravel(j, ms)
		for i := 0; i < total; i++ {
			id := unravel(i, ms)
			v := 1.0
			for d, m := range ms {
				v *= m.Theta(jd[d], id[d])
				if v == 0 {
					break
				}
			}
			dense.Set(j, i, v)
		}
	}
	return rr.FromDense(dense)
}

// unravel decomposes a flat product-space index into per-attribute digits
// (row-major, attribute 0 slowest). The inverse is ravel; the pair is pinned
// by FuzzJointIndexRoundTrip.
func unravel(idx int, ms []*rr.Matrix) []int {
	out := make([]int, len(ms))
	for d := len(ms) - 1; d >= 0; d-- {
		n := ms[d].N()
		out[d] = idx % n
		idx /= n
	}
	return out
}

// ravel recomposes per-attribute digits into the flat product-space index:
// idx = ((rec_0·n_1 + rec_1)·n_2 + …, matching mining.MultiRR.Index.
func ravel(rec []int, ms []*rr.Matrix) int {
	idx := 0
	for d, m := range ms {
		idx = idx*m.N() + rec[d]
	}
	return idx
}
