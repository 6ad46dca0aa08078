// Package dataset provides the categorical-data substrate of the paper's
// evaluation (Section VI): single-attribute categorical data sets, empirical
// distributions, discretization of continuous values, and seeded synthetic
// generators for the priors the paper evaluates on (discretized normal,
// gamma, discrete uniform) plus an Adult-like generator standing in for the
// UCI Adult data set (see DESIGN.md, "Substitutions").
package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"optrr/internal/randx"
)

// Categorical is a single-attribute categorical data set: every record is a
// category index in [0, N categories).
type Categorical struct {
	n       int
	records []int
}

// Dataset errors.
var (
	// ErrBadCategory reports a record outside [0, n).
	ErrBadCategory = errors.New("dataset: record out of category range")
	// ErrBadDistribution reports an invalid probability vector.
	ErrBadDistribution = errors.New("dataset: invalid probability distribution")
)

// NewCategorical wraps records over n categories. The record slice is taken
// over by the data set (not copied); callers must not modify it afterwards.
func NewCategorical(n int, records []int) (*Categorical, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d categories", ErrBadCategory, n)
	}
	for i, r := range records {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("%w: record %d has value %d, want [0,%d)", ErrBadCategory, i, r, n)
		}
	}
	return &Categorical{n: n, records: records}, nil
}

// ReadIndices reads a data file of one category index per line, skipping
// blank lines and lines that start with '#'. A parse error names the file
// and line as path:line. The indices are not range-checked; NewCategorical
// does that.
func ReadIndices(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []int
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.Atoi(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		recs = append(recs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Categories returns the number of categories n.
func (d *Categorical) Categories() int { return d.n }

// Len returns the number of records N.
func (d *Categorical) Len() int { return len(d.records) }

// Record returns the i-th record's category index.
func (d *Categorical) Record(i int) int { return d.records[i] }

// Records returns the underlying record slice. The caller must treat it as
// read-only.
func (d *Categorical) Records() []int { return d.records }

// Counts returns the per-category record counts N_i.
func (d *Categorical) Counts() []int {
	c := make([]int, d.n)
	for _, r := range d.records {
		c[r]++
	}
	return c
}

// Distribution returns the empirical distribution (the MLE of the category
// probabilities, Theorem 1 of the paper): P̂(c_i) = N_i / N.
func (d *Categorical) Distribution() []float64 {
	p := make([]float64, d.n)
	if len(d.records) == 0 {
		return p
	}
	inv := 1 / float64(len(d.records))
	for _, r := range d.records {
		p[r] += inv
	}
	return p
}

// ValidateDistribution checks that p is a probability vector: non-negative
// entries summing to 1 within tolerance.
func ValidateDistribution(p []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("%w: empty", ErrBadDistribution)
	}
	var sum float64
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: p[%d] = %v", ErrBadDistribution, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: sum = %v, want 1", ErrBadDistribution, sum)
	}
	return nil
}

// Normalize scales a non-negative weight vector into a probability vector.
func Normalize(w []float64) ([]float64, error) {
	var sum float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: weight[%d] = %v", ErrBadDistribution, i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("%w: weights sum to %v", ErrBadDistribution, sum)
	}
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = v / sum
	}
	return out, nil
}

// Sample draws N records i.i.d. from the probability vector p.
func Sample(p []float64, n int, r *randx.Source) (*Categorical, error) {
	if err := ValidateDistribution(p); err != nil {
		return nil, err
	}
	alias, err := randx.NewAlias(p)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	records := make([]int, n)
	for i := range records {
		records[i] = alias.Draw(r)
	}
	return &Categorical{n: len(p), records: records}, nil
}

// sampleChunk is the fixed record-chunk granularity of SampleBatch; chunk c
// always draws from randx.Stream(seed, c), so the partition — and therefore
// the sampled data set — is independent of the worker count.
const sampleChunk = 8192

// SampleBatch draws N records i.i.d. from the probability vector p, like
// Sample, but fans fixed 8192-record chunks out over the given number of
// workers (zero means GOMAXPROCS). The result depends only on (p, n, seed):
// every worker count produces the identical data set.
func SampleBatch(p []float64, n int, seed uint64, workers int) (*Categorical, error) {
	if err := ValidateDistribution(p); err != nil {
		return nil, err
	}
	alias, err := randx.NewAlias(p)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	records := make([]int, n)
	if n > 0 {
		chunks := (n + sampleChunk - 1) / sampleChunk
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > chunks {
			workers = chunks
		}
		fill := func(c int) {
			lo := c * sampleChunk
			hi := lo + sampleChunk
			if hi > n {
				hi = n
			}
			r := randx.Stream(seed, uint64(c))
			for i := lo; i < hi; i++ {
				records[i] = alias.Draw(r)
			}
		}
		if workers <= 1 {
			for c := 0; c < chunks; c++ {
				fill(c)
			}
		} else {
			// The alias table is immutable and each chunk writes a disjoint
			// range, so workers share everything but their chunk streams.
			var cursor atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers - 1)
			body := func() {
				for {
					c := int(cursor.Add(1)) - 1
					if c >= chunks {
						return
					}
					fill(c)
				}
			}
			for w := 1; w < workers; w++ {
				go func() {
					defer wg.Done()
					body()
				}()
			}
			body()
			wg.Wait()
		}
	}
	return &Categorical{n: len(p), records: records}, nil
}

// Discretize maps continuous values into n equi-width bins spanning
// [min, max]; values outside the range are clamped into the first or last
// bin. This is how the paper turns the Adult data set's continuous
// attributes into categorical ones.
func Discretize(values []float64, n int, min, max float64) (*Categorical, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d bins", ErrBadCategory, n)
	}
	if !(max > min) {
		return nil, fmt.Errorf("dataset: Discretize needs max > min, got [%v, %v]", min, max)
	}
	width := (max - min) / float64(n)
	records := make([]int, len(values))
	for i, v := range values {
		b := int((v - min) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		records[i] = b
	}
	return &Categorical{n: n, records: records}, nil
}

// TotalVariation returns the total-variation distance between two
// distributions of equal length: ½ Σ |p_i − q_i|.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: lengths %d and %d", ErrBadDistribution, len(p), len(q))
	}
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2, nil
}

// MeanSquaredError returns the mean squared per-category error between two
// distributions, the empirical counterpart of the paper's utility metric.
func MeanSquaredError(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: lengths %d and %d", ErrBadDistribution, len(p), len(q))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s / float64(len(p)), nil
}

// MaxCategory returns the index and value of the largest probability in p.
func MaxCategory(p []float64) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// SortedIndices returns category indices ordered by descending probability;
// ties break on the smaller index for determinism.
func SortedIndices(p []float64) []int {
	idx := make([]int, len(p))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p[idx[a]] > p[idx[b]] })
	return idx
}
