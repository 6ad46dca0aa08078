package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"optrr/internal/rr"
)

// snapshotJSON is the crash-recovery wire form: the scheme in its
// kind-tagged envelope, a consistent fold of the counts, and the total as a
// redundant integrity check (a truncated or hand-edited counts array with a
// plausible shape is otherwise undetectable). Shard layout is an in-memory
// concern and deliberately not persisted — restore re-stripes freely.
// MarshalJSON writes the scheme, counts and total members, in this order.
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
// (scheme envelope + folded counts + total) for crash recovery. The bytes
// are what json.Marshal writes for the snapshotJSON form, but the envelope
// is the one the collector encoded once and kept, appended as it is rather
// than re-scanned, so a snapshot costs a fold and a copy. Call it directly:
// json.Marshal(c) re-scans the result once more to compact it.
func (c *Collector) MarshalJSON() ([]byte, error) {
	enc, err := c.encoded()
	if err != nil {
		return nil, err
	}
	counts, total := c.fold()
	b := make([]byte, 0, len(enc.env)+64+4*len(counts))
	b = append(b, `{"scheme":`...)
	b = append(b, enc.env...)
	b = append(b, `,"counts":[`...)
	for k, v := range counts {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, `],"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	return append(b, '}'), nil
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
	return RestoreOnto(data, shards, nil, nil)
}

// RestoreOnto is Restore for a process that already runs scheme, whose
// rr.MarshalScheme envelope is env. A snapshot whose scheme envelope is env
// byte for byte restores onto scheme itself, keeping env: the envelope is
// not decoded, validated or encoded again, so a sketch's inner matrix is not
// inverted a second time. The counts are validated as Restore validates
// them. Any other snapshot — a legacy {"matrix": …} one, an envelope spelled
// differently, another scheme — restores exactly as Restore restores it,
// onto the scheme it decodes; compare SchemeVersion to tell whether that is
// the running one. A nil scheme makes RestoreOnto Restore. The caller must
// not modify env afterwards.
func RestoreOnto(data []byte, shards int, scheme rr.Scheme, env []byte) (*Collector, error) {
	var raw snapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrBadSnapshot, err)
	}
	switch {
	case scheme != nil && len(raw.Scheme) > 0 && bytes.Equal(raw.Scheme, env):
		// The running scheme's own envelope: nothing to decode.
	case len(raw.Scheme) > 0:
		s, err := rr.UnmarshalScheme(raw.Scheme)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		scheme, env = s, nil
	case raw.Matrix != nil:
		scheme, env = raw.Matrix, nil
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
	c := newCollector(scheme, env, shards)
	c.set.shards[0].land(raw.Counts)
	return c, nil
}
