package rr

import (
	"fmt"

	"optrr/internal/par"
	"optrr/internal/randx"
)

// DisguiseBatch is DisguiseBatchInto with a freshly allocated result slice.
func (m *Matrix) DisguiseBatch(records []int, seed uint64, workers int) ([]int, error) {
	out := make([]int, len(records))
	if err := m.DisguiseBatchInto(out, records, seed, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// DisguiseBatchInto applies randomized response to every record — each
// original category c_i replaced by a draw from column i of M — writing the
// disguised categories into dst (same length as records). The records are
// processed through par.Chunks, so the output depends only on
// (M, records, seed), never on the worker count (zero means GOMAXPROCS).
//
// On error — an out-of-range record, reported exactly as Disguise reports
// it, for the first offending record — the contents of dst are unspecified.
func (m *Matrix) DisguiseBatchInto(dst, records []int, seed uint64, workers int) error {
	if len(dst) != len(records) {
		return fmt.Errorf("%w: dst length %d for %d records", ErrShape, len(dst), len(records))
	}
	// The alias tables are immutable after construction, so every worker
	// shares them; all per-chunk state is the chunk's own Source.
	samplers, err := m.Samplers()
	if err != nil {
		return err
	}
	n := len(samplers)
	return par.Chunks(len(records), seed, workers, func(lo, hi int, rng *randx.Source) error {
		for k := lo; k < hi; k++ {
			rec := records[k]
			if rec < 0 || rec >= n {
				return fmt.Errorf("%w: record %d has category %d", ErrShape, k, rec)
			}
			dst[k] = samplers[rec].Draw(rng)
		}
		return nil
	})
}
