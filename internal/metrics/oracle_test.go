package metrics

import (
	"fmt"

	"optrr/internal/matrix"
	"optrr/internal/rr"
)

// Test oracles: slow, obviously correct reference implementations that the
// fused and Kronecker-factored production paths are pinned against.

// EvaluateComposed computes the same Evaluation as Evaluate by spelling each
// formula out, sharing nothing with the workspace: Equation 8 by its double
// sum, Equation 9 as the largest entry of Posterior, and Theorem 6 from a
// fresh m.Inverse(). It is the reference the fused Workspace path is tested
// against, and the slow side of BenchmarkEvaluate/composed.
func EvaluateComposed(m *rr.Matrix, prior []float64, records int) (Evaluation, error) {
	mp, err := posteriorMax(m, prior)
	if err != nil {
		return Evaluation{}, err
	}
	if records <= 0 {
		return Evaluation{}, fmt.Errorf("%w: %d", ErrBadRecords, records)
	}
	n := m.N()
	// Equation 8: A = Σ_j max_i θ_{j,i}·P_i.
	var a float64
	for j := 0; j < n; j++ {
		var best float64
		for i := 0; i < n; i++ {
			if v := m.Theta(j, i) * prior[i]; v > best {
				best = v
			}
		}
		a += best
	}
	// Theorem 6: MSE(c_k) = (Σ_i β²_{k,i}·P*_i − (Σ_i β_{k,i}·P*_i)²)/N.
	beta, err := m.Inverse()
	if err != nil {
		return Evaluation{}, err
	}
	pStar, err := m.DisguisedDistribution(prior)
	if err != nil {
		return Evaluation{}, err
	}
	invN := 1 / float64(records)
	var sum float64
	for k := 0; k < n; k++ {
		var quad, mean float64
		for i := 0; i < n; i++ {
			b := beta.At(k, i)
			quad += b * b * pStar[i]
			mean += b * pStar[i]
		}
		mse := invN * (quad - mean*mean)
		if mse < 0 {
			mse = 0 // round-off on near-deterministic matrices
		}
		sum += mse
	}
	return Evaluation{Privacy: 1 - a, Utility: sum / float64(n), MaxPosterior: mp}, nil
}

// posteriorMax is Equation 9 by brute force: the largest entry of the
// materialized posterior matrix.
func posteriorMax(m *rr.Matrix, prior []float64) (float64, error) {
	post, err := Posterior(m, prior)
	if err != nil {
		return 0, err
	}
	var mp float64
	for _, row := range post {
		for _, v := range row {
			if v > mp {
				mp = v
			}
		}
	}
	return mp, nil
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
