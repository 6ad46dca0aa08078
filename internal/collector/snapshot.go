package collector

import (
	"encoding/json"
	"fmt"
	"math"

	"optrr/internal/rr"
)

// snapshotJSON is the crash-recovery wire form: the scheme in its
// kind-tagged envelope, a consistent fold of the counts, and the total as a
// redundant integrity check (a truncated or hand-edited counts array with a
// plausible shape is otherwise undetectable). Shard layout is an in-memory
// concern and deliberately not persisted — restore re-stripes freely.
type snapshotJSON struct {
	Scheme json.RawMessage `json:"scheme,omitempty"`
	// Matrix is read, never written: dense snapshots from before the
	// scheme envelope carried the bare matrix here.
	Matrix *rr.Matrix `json:"matrix,omitempty"`
	Counts []int      `json:"counts"`
	// Total is optional on decode so snapshots written before it existed
	// still restore; when present it must equal the sum of Counts.
	Total *int `json:"total,omitempty"`
}

// MarshalJSON serializes a consistent snapshot of the collection state
// (scheme envelope + folded counts + total) for crash recovery.
func (c *Collector) MarshalJSON() ([]byte, error) {
	env, err := rr.MarshalScheme(c.scheme)
	if err != nil {
		return nil, err
	}
	counts, total := c.fold()
	return json.Marshal(snapshotJSON{Scheme: env, Counts: counts, Total: &total})
}

// Restore rebuilds a collector from a MarshalJSON snapshot — or from a
// legacy {"matrix": …} dense snapshot, with or without its total — striped
// across the given number of shards (<= 0 picks the default). The snapshot
// is fully validated before any state is built: the scheme must decode and
// validate, the counts must cover its report space, be non-negative and not
// overflow, and the recorded total (when present) must equal their sum.
// Every rejection wraps ErrBadSnapshot, so a server restoring at boot can
// distinguish "corrupt file, start fresh" from I/O errors.
func Restore(data []byte, shards int) (*Collector, error) {
	var raw snapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrBadSnapshot, err)
	}
	var scheme rr.Scheme
	switch {
	case len(raw.Scheme) > 0:
		s, err := rr.UnmarshalScheme(raw.Scheme)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		scheme = s
	case raw.Matrix != nil:
		scheme = raw.Matrix
	default:
		return nil, fmt.Errorf("%w: no scheme", ErrBadSnapshot)
	}
	if len(raw.Counts) != scheme.ReportSpace() {
		return nil, fmt.Errorf("%w: %d counts for report space %d", ErrBadSnapshot, len(raw.Counts), scheme.ReportSpace())
	}
	sum := 0
	for k, v := range raw.Counts {
		if v < 0 {
			return nil, fmt.Errorf("%w: count[%d] = %d is negative", ErrBadSnapshot, k, v)
		}
		if v > math.MaxInt-sum {
			return nil, fmt.Errorf("%w: counts overflow at count[%d]", ErrBadSnapshot, k)
		}
		sum += v
	}
	if raw.Total != nil && *raw.Total != sum {
		return nil, fmt.Errorf("%w: total %d but counts sum to %d", ErrBadSnapshot, *raw.Total, sum)
	}
	c := New(scheme, shards)
	c.set.shards[0].land(raw.Counts)
	return c, nil
}
