// Package mining implements the privacy-preserving data-mining consumers
// that motivate the paper (Sections I–II) on top of the RR substrate:
//
//   - multi-dimensional randomized response — the paper's stated future
//     work (Section VII): each attribute is disguised independently and the
//     joint distribution is reconstructed by per-axis inversion;
//   - decision-tree building on reconstructed distributions, in the style
//     of Du & Zhan (KDD 2003);
//   - association-rule mining with reconstructed supports, in the style of
//     Rizvi & Haritsa (VLDB 2002);
//   - naive-Bayes classification from disguised data.
//
// All consumers operate purely on disguised records plus the RR matrices
// used to disguise them; original data never enters the computation.
package mining

import (
	"errors"
	"fmt"
	"math"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Mining errors.
var (
	// ErrSchema reports records inconsistent with the attribute schema.
	ErrSchema = errors.New("mining: record does not match schema")
	// ErrNoData reports an estimation request over zero records.
	ErrNoData = errors.New("mining: no records")
)

// MultiRR disguises and reconstructs multi-attribute categorical data by
// applying an independent RR matrix per attribute. The joint disguise
// channel is the Kronecker product of the per-attribute matrices, so the
// joint distribution is reconstructed with rr's factored inverse ⊗M_d⁻¹ —
// never materializing the exponentially large product matrix.
type MultiRR struct {
	ms    []*rr.Matrix
	sizes []int
	axes  []int // every attribute in schema order: the axes of the full joint
}

// NewMultiRR builds a multi-dimensional disguiser from one matrix per
// attribute. A schema whose joint space has more cells than an int can count
// is accepted: it serves estimates over small attribute subsets (e.g.
// BasketMiner supports), while the full-joint methods report ErrSchema.
func NewMultiRR(ms ...*rr.Matrix) (*MultiRR, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrSchema)
	}
	sizes := make([]int, len(ms))
	axes := make([]int, len(ms))
	for d, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("%w: nil matrix for attribute %d", ErrSchema, d)
		}
		sizes[d] = m.N()
		axes[d] = d
	}
	return &MultiRR{ms: ms, sizes: sizes, axes: axes}, nil
}

// Attributes returns the number of attributes.
func (mr *MultiRR) Attributes() int { return len(mr.ms) }

// Sizes returns the per-attribute category counts.
func (mr *MultiRR) Sizes() []int {
	out := make([]int, len(mr.sizes))
	copy(out, mr.sizes)
	return out
}

// JointSize returns the number of cells in the joint distribution, or 0 when
// that count overflows int.
func (mr *MultiRR) JointSize() int {
	n, _ := mr.cells(mr.axes)
	return n
}

// Matrix returns the RR matrix of attribute d.
func (mr *MultiRR) Matrix(d int) *rr.Matrix { return mr.ms[d] }

// cells returns the number of joint cells over the listed attributes, which
// must be distinct and in range. A count that overflows int is ErrSchema.
func (mr *MultiRR) cells(axes []int) (int, error) {
	seen := make([]bool, len(mr.sizes))
	n := 1
	for _, d := range axes {
		if d < 0 || d >= len(mr.sizes) || seen[d] {
			return 0, fmt.Errorf("%w: bad attribute %d", ErrSchema, d)
		}
		seen[d] = true
		if mr.sizes[d] > math.MaxInt/n {
			return 0, fmt.Errorf("%w: joint space of %d attributes has more cells than an int can count", ErrSchema, len(axes))
		}
		n *= mr.sizes[d]
	}
	return n, nil
}

// checkRecord validates one multi-attribute record.
func (mr *MultiRR) checkRecord(rec []int) error {
	if len(rec) != len(mr.sizes) {
		return fmt.Errorf("%w: record has %d attributes, want %d", ErrSchema, len(rec), len(mr.sizes))
	}
	for d, v := range rec {
		if v < 0 || v >= mr.sizes[d] {
			return fmt.Errorf("%w: attribute %d has value %d, want [0,%d)", ErrSchema, d, v, mr.sizes[d])
		}
	}
	return nil
}

// Disguise applies each attribute's RR matrix independently to every record,
// drawing from the matrices' cached samplers record by record.
func (mr *MultiRR) Disguise(records [][]int, r *randx.Source) ([][]int, error) {
	samplers := make([][]*randx.Alias, len(mr.ms))
	for d, m := range mr.ms {
		s, err := m.Samplers()
		if err != nil {
			return nil, fmt.Errorf("mining: attribute %d: %w", d, err)
		}
		samplers[d] = s
	}
	out := make([][]int, len(records))
	for k, rec := range records {
		if err := mr.checkRecord(rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		row := make([]int, len(rec))
		for d, v := range rec {
			row[d] = samplers[d][v].Draw(r)
		}
		out[k] = row
	}
	return out, nil
}

// Index flattens a multi-attribute value into a row-major joint-cell index.
func (mr *MultiRR) Index(rec []int) (int, error) {
	if err := mr.checkRecord(rec); err != nil {
		return 0, err
	}
	idx := 0
	for d, v := range rec {
		idx = idx*mr.sizes[d] + v
	}
	return idx, nil
}

// Unindex inverts Index.
func (mr *MultiRR) Unindex(idx int) []int {
	rec := make([]int, len(mr.sizes))
	for d := len(mr.sizes) - 1; d >= 0; d-- {
		rec[d] = idx % mr.sizes[d]
		idx /= mr.sizes[d]
	}
	return rec
}

// EmpiricalJoint returns the flattened joint frequency table of records.
func (mr *MultiRR) EmpiricalJoint(records [][]int) ([]float64, error) {
	return mr.empirical(records, mr.axes)
}

// empirical returns the joint frequency table of the listed attributes
// (row-major in axes order), read straight from the full records: each
// record adds 1/N to its cell, in record order.
func (mr *MultiRR) empirical(records [][]int, axes []int) ([]float64, error) {
	if len(records) == 0 {
		return nil, ErrNoData
	}
	cells, err := mr.cells(axes)
	if err != nil {
		return nil, err
	}
	joint := make([]float64, cells)
	inv := 1 / float64(len(records))
	for k, rec := range records {
		if err := mr.checkRecord(rec); err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		idx := 0
		for _, d := range axes {
			idx = idx*mr.sizes[d] + rec[d]
		}
		joint[idx] += inv
	}
	return joint, nil
}

// EstimateJoint reconstructs the original joint distribution from disguised
// records: the empirical disguised joint is computed and inverted with the
// factored inverse ⊗M_d⁻¹ (Theorem 1 applied per axis; see
// rr.TupleEstimateFromDistribution). The estimate is unbiased but, like the
// one-dimensional inversion estimate, may contain small negative entries for
// finite samples; use rr.Clip if a proper distribution is required. A
// singular matrix is rr.ErrSingular.
func (mr *MultiRR) EstimateJoint(disguised [][]int) ([]float64, error) {
	return mr.estimateAxes(disguised, mr.axes)
}

// estimateAxes reconstructs the original joint distribution of the listed
// attributes (row-major in axes order) from the full disguised records: the
// mining consumers' path to one itemset, attribute pair or class column
// without projecting the records or building a sub-schema.
func (mr *MultiRR) estimateAxes(disguised [][]int, axes []int) ([]float64, error) {
	joint, err := mr.empirical(disguised, axes)
	if err != nil {
		return nil, err
	}
	ms := make([]*rr.Matrix, len(axes))
	for i, d := range axes {
		ms[i] = mr.ms[d]
	}
	return rr.TupleEstimateFromDistribution(ms, joint)
}

// Marginal sums the joint distribution over every attribute except the ones
// listed in keep (in keep order), returning the flattened marginal and its
// sizes.
func (mr *MultiRR) Marginal(joint []float64, keep []int) ([]float64, []int, error) {
	if err := mr.checkJoint(joint); err != nil {
		return nil, nil, err
	}
	outTotal, err := mr.cells(keep)
	if err != nil {
		return nil, nil, err
	}
	outSizes := make([]int, len(keep))
	for i, d := range keep {
		outSizes[i] = mr.sizes[d]
	}
	out := make([]float64, outTotal)
	for idx, v := range joint {
		if v == 0 {
			continue
		}
		rec := mr.Unindex(idx)
		o := 0
		for i, d := range keep {
			o = o*outSizes[i] + rec[d]
		}
		out[o] += v
	}
	return out, outSizes, nil
}

// checkJoint validates a flattened joint table over the whole schema.
func (mr *MultiRR) checkJoint(joint []float64) error {
	total, err := mr.cells(mr.axes)
	if err != nil {
		return err
	}
	if len(joint) != total {
		return fmt.Errorf("%w: joint of size %d, want %d", ErrSchema, len(joint), total)
	}
	return nil
}
