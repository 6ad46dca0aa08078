package collector

import (
	"fmt"
	"math"
	"strconv"

	"optrr/internal/rr"
	"optrr/internal/strictjson"
)

// MarshalJSON serializes a consistent snapshot of the collection state for
// crash recovery:
//
//	{"scheme":{"kind":…,"scheme":…},"counts":[…],"total":…}
//
// the scheme in its kind-tagged envelope, a fold of the counts, and their
// total as a redundant integrity check (a truncated or hand-edited counts
// array with a plausible shape is otherwise undetectable). Shard layout is
// an in-memory concern and deliberately not persisted: restore re-stripes
// freely. The bytes are what json.Marshal writes for a struct of those
// members, the envelope a json.RawMessage, but the envelope is the one the
// collector encoded once and kept, appended as it is rather than re-scanned,
// so a snapshot costs a fold and a copy. Call it directly: json.Marshal(c)
// re-scans the result once more to compact it.
func (c *Collector) MarshalJSON() ([]byte, error) {
	env, err := c.encoded()
	if err != nil {
		return nil, err
	}
	counts, total := c.fold()
	b := make([]byte, 0, len(env)+64+4*len(counts))
	b = append(b, `{"scheme":`...)
	b = append(b, env...)
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
// is read in one pass under strictjson's grammar (unknown members are
// validated and skipped, so a newer writer may add some) and fully
// validated before any state is built: the scheme must decode and validate,
// the counts must cover its report space, be non-negative and not overflow,
// and the recorded total (when present) must equal their sum. Every
// rejection wraps ErrBadSnapshot, so a server restoring at boot can
// distinguish "corrupt file, start fresh" from I/O errors.
func Restore(data []byte, shards int) (*Collector, error) {
	return RestoreOnto(data, shards, nil, nil)
}

// RestoreOnto is Restore for a process that already runs scheme, whose
// rr.MarshalScheme envelope is env. A snapshot whose scheme envelope is env
// byte for byte restores onto scheme itself, keeping env: the envelope is
// compared, not decoded, validated or encoded again, so restoring a sketch
// snapshot parses little more than its counts. The counts are validated as
// Restore validates them. Any other snapshot — a legacy {"matrix": …} one,
// an envelope spelled differently, another scheme — restores exactly as
// Restore restores it, onto the scheme it decodes; compare SchemeVersion to
// tell whether that is the running one. A nil scheme makes RestoreOnto
// Restore. The caller must not modify env afterwards.
func RestoreOnto(data []byte, shards int, scheme rr.Scheme, env []byte) (*Collector, error) {
	var (
		onto    bool       // the scheme member is env
		decoded rr.Scheme  // the scheme member, decoded
		legacy  *rr.Matrix // the bare matrix of a legacy dense snapshot
		counts  []int
		total   *int
	)
	doc := strictjson.New(data)
	err := doc.Object(
		strictjson.Member{Name: "scheme", Read: func(c *strictjson.Cursor) (err error) {
			if scheme != nil && c.Equal(env) {
				onto = true
				return nil
			}
			decoded, err = rr.DecodeScheme(c)
			return err
		}},
		strictjson.Member{Name: "matrix", Read: func(c *strictjson.Cursor) (err error) {
			legacy, err = rr.DecodeMatrix(c)
			return err
		}},
		strictjson.Member{Name: "counts", Read: func(c *strictjson.Cursor) (err error) {
			counts, err = c.AppendInts(nil)
			return err
		}},
		strictjson.Member{Name: "total", Read: func(c *strictjson.Cursor) error {
			n, err := c.Int()
			total = &n
			return err
		}},
	)
	if err == nil {
		err = doc.End()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrBadSnapshot, err)
	}
	switch {
	case onto:
		// The running scheme's own envelope: nothing to decode.
	case decoded != nil:
		scheme, env = decoded, nil
	case legacy != nil:
		scheme, env = legacy, nil
	default:
		return nil, fmt.Errorf("%w: no scheme", ErrBadSnapshot)
	}
	if len(counts) != scheme.ReportSpace() {
		return nil, fmt.Errorf("%w: %d counts for report space %d", ErrBadSnapshot, len(counts), scheme.ReportSpace())
	}
	sum := 0
	for k, v := range counts {
		if v < 0 {
			return nil, fmt.Errorf("%w: count[%d] = %d is negative", ErrBadSnapshot, k, v)
		}
		if v > math.MaxInt-sum {
			return nil, fmt.Errorf("%w: counts overflow at count[%d]", ErrBadSnapshot, k)
		}
		sum += v
	}
	if total != nil && *total != sum {
		return nil, fmt.Errorf("%w: total %d but counts sum to %d", ErrBadSnapshot, *total, sum)
	}
	c := newCollector(scheme, env, shards)
	c.set.shards[0].land(counts)
	return c, nil
}
