package mining

import (
	"fmt"
	"math"

	"optrr/internal/rr"
)

// Naive-Bayes classification from disguised data: the class prior and each
// attribute's class-conditional distribution are reconstructed from the
// disguised records (each conditional needs only the two-dimensional joint
// of one attribute with the class), then classification proceeds as usual.

// NaiveBayes is a classifier trained on disguised records.
type NaiveBayes struct {
	classAttr  int
	sizes      []int
	classPrior []float64
	// cond[d][c*size_d + v] = P(attr_d = v | class = c); nil for the class
	// attribute itself.
	cond [][]float64
}

// TrainNaiveBayes reconstructs the class prior and per-attribute
// conditionals from disguised records. Reconstructed probabilities are
// clipped onto the simplex and Laplace-smoothed with the given alpha
// (relative to a nominal record count of len(disguised)); alpha zero means
// 1.
func TrainNaiveBayes(mr *MultiRR, disguised [][]int, classAttr int, alpha float64) (*NaiveBayes, error) {
	if classAttr < 0 || classAttr >= mr.Attributes() {
		return nil, fmt.Errorf("%w: class attribute %d", ErrSchema, classAttr)
	}
	if alpha == 0 {
		alpha = 1
	}
	n := float64(len(disguised))
	nClass := mr.Sizes()[classAttr]

	// Class prior from the class attribute's one-dimensional reconstruction.
	rawPrior, err := mr.estimateAxes(disguised, []int{classAttr})
	if err != nil {
		return nil, err
	}
	prior := smooth(rr.Clip(rawPrior), alpha, n)

	nb := &NaiveBayes{
		classAttr:  classAttr,
		sizes:      mr.Sizes(),
		classPrior: prior,
		cond:       make([][]float64, mr.Attributes()),
	}
	for d := 0; d < mr.Attributes(); d++ {
		if d == classAttr {
			continue
		}
		joint, err := mr.estimateAxes(disguised, []int{d, classAttr})
		if err != nil {
			return nil, err
		}
		sizeD := nb.sizes[d]
		cond := make([]float64, nClass*sizeD)
		col := make([]float64, sizeD)
		for c := 0; c < nClass; c++ {
			for v := 0; v < sizeD; v++ {
				col[v] = joint[v*nClass+c]
			}
			sm := smooth(rr.Clip(col), alpha, n)
			copy(cond[c*sizeD:(c+1)*sizeD], sm)
		}
		nb.cond[d] = cond
	}
	return nb, nil
}

// smooth applies Laplace smoothing with pseudo-count alpha against a nominal
// record count n to a probability vector.
func smooth(p []float64, alpha, n float64) []float64 {
	k := float64(len(p))
	out := make([]float64, len(p))
	denom := n + alpha*k
	for i, v := range p {
		out[i] = (v*n + alpha) / denom
	}
	return out
}

// Classify predicts the class of a record (its class attribute value is
// ignored) by maximizing the log-posterior.
func (nb *NaiveBayes) Classify(rec []int) (int, error) {
	if len(rec) != len(nb.sizes) {
		return 0, fmt.Errorf("%w: record has %d attributes, want %d", ErrSchema, len(rec), len(nb.sizes))
	}
	nClass := nb.sizes[nb.classAttr]
	best, bestScore := 0, math.Inf(-1)
	for c := 0; c < nClass; c++ {
		score := math.Log(nb.classPrior[c])
		for d, cond := range nb.cond {
			if cond == nil {
				continue
			}
			v := rec[d]
			if v < 0 || v >= nb.sizes[d] {
				return 0, fmt.Errorf("%w: attribute %d has value %d", ErrSchema, d, v)
			}
			score += math.Log(cond[c*nb.sizes[d]+v])
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best, nil
}

// Accuracy returns the fraction of records whose class the model predicts
// correctly.
func (nb *NaiveBayes) Accuracy(records [][]int) (float64, error) {
	if len(records) == 0 {
		return 0, ErrNoData
	}
	correct := 0
	for _, rec := range records {
		c, err := nb.Classify(rec)
		if err != nil {
			return 0, err
		}
		if c == rec[nb.classAttr] {
			correct++
		}
	}
	return float64(correct) / float64(len(records)), nil
}

// ClassPrior returns the reconstructed class distribution.
func (nb *NaiveBayes) ClassPrior() []float64 {
	out := make([]float64, len(nb.classPrior))
	copy(out, nb.classPrior)
	return out
}
