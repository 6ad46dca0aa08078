package rr

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"optrr/internal/randx"
	"optrr/internal/strictjson"
)

// Scheme abstracts a randomized-response disguise mechanism so the layers
// above the matrix math — collectors, the collection service, the disguise
// SDK, mining — do not assume the dense n×n matrix representation. A scheme
// maps a private value from a category domain onto an encoded report in a
// (possibly much smaller) report space, debiases aggregated report counts
// back into frequency estimates over the original domain, and states the
// confidence bounds of its own reconstruction, so callers never branch on
// the scheme kind to estimate or bound.
//
// *Matrix is the dense scheme: report space == domain, disguise draws from
// the matrix column, estimation is the Theorem-1 inversion through a cached
// factorization, bounded by the Theorem-6 variance. The Count-Mean-Sketch
// scheme (internal/sketch) hashes a huge domain into a small hash range
// first, so its report space is O(hashes·hashRange), independent of the
// domain size, and bounds its estimates with its sampling and collision
// terms.
type Scheme interface {
	// Kind identifies the scheme family on the wire (see RegisterScheme).
	Kind() string
	// Domain returns the original category domain size: private values are
	// integers in [0, Domain()).
	Domain() int
	// ReportSpace returns the size of the encoded report space: disguised
	// reports are integers in [0, ReportSpace()).
	ReportSpace() int
	// DisguiseValue disguises one private value into an encoded report,
	// drawing randomness from rng. The private value never appears in the
	// result except through the scheme's randomized channel.
	DisguiseValue(value int, rng *randx.Source) (int, error)
	// DisguiseBatchInto disguises records into dst (same length) using the
	// deterministic chunked schedule of BatchChunks: the output depends only
	// on (scheme, records, seed), never on the worker count.
	DisguiseBatchInto(dst, records []int, seed uint64, workers int) error
	// EstimateFrom debiases aggregated report counts (length ReportSpace())
	// into frequency estimates for the requested original categories; a nil
	// categories slice means the full domain, in order.
	EstimateFrom(counts []int, categories []int) ([]float64, error)
	// Reconstruct takes EstimateFrom's arguments and returns the estimate
	// the scheme states its confidence bounds for and, when z > 0, the
	// per-category half-widths at the normal quantile z (callers validate
	// z): the simplex-clipped inversion with Theorem-6 half-widths for a
	// dense matrix, the debiased frequencies with the sketch's own bounds
	// for a count-mean sketch. z = 0 states no bounds.
	Reconstruct(counts, categories []int, z float64) (Reconstruction, error)
}

// Reconstruction is a scheme's view of one fold of report counts (see
// Scheme.Reconstruct).
type Reconstruction struct {
	// Disguised is the empirical distribution of the reports when the report
	// space is the category domain (a dense matrix), over the whole domain;
	// nil otherwise.
	Disguised []float64
	// Estimate is the reconstruction of the requested categories that the
	// half-widths are stated for.
	Estimate []float64
	// HalfWidth holds the requested categories' confidence half-widths; nil
	// when none were asked for (z = 0).
	HalfWidth []float64
}

// DenseKind is the Kind of the dense matrix scheme.
const DenseKind = "dense"

var (
	schemeCodecsMu sync.RWMutex
	schemeCodecs   = map[string]func(c *strictjson.Cursor) (Scheme, error){}
)

// RegisterScheme registers the decoder for a scheme kind, used by
// UnmarshalScheme and DecodeScheme to revive kind-tagged envelopes. The
// decoder reads the envelope's scheme payload where it lies, consuming that
// one value from the cursor. Packages implementing a Scheme register
// themselves in an init function; registering the same kind twice panics
// (it is a wiring bug, not a runtime condition).
func RegisterScheme(kind string, decode func(c *strictjson.Cursor) (Scheme, error)) {
	if kind == "" || decode == nil {
		panic("rr: RegisterScheme needs a kind and a decoder")
	}
	schemeCodecsMu.Lock()
	defer schemeCodecsMu.Unlock()
	if _, dup := schemeCodecs[kind]; dup {
		panic(fmt.Sprintf("rr: scheme kind %q registered twice", kind))
	}
	schemeCodecs[kind] = decode
}

// SchemeKinds returns the registered scheme kinds, sorted.
func SchemeKinds() []string {
	schemeCodecsMu.RLock()
	defer schemeCodecsMu.RUnlock()
	out := make([]string, 0, len(schemeCodecs))
	for k := range schemeCodecs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MarshalScheme serializes any Scheme into its kind-tagged envelope:
//
//	{"kind": "dense", "scheme": {...}}
//
// The payload is the scheme's own json.Marshaler form, appended as it is:
// a Scheme's MarshalJSON must return compact JSON, as json.Marshal writes
// it (both in-module schemes do). The envelope is then byte for byte what
// json.Marshal writes for a struct of the two members, the payload a
// json.RawMessage, without encoding/json re-scanning and compacting the
// payload once per layer — for a sketch with a 256×256 inner matrix that is
// 1.4 MB per pass. A scheme without a MarshalJSON goes through json.Marshal.
func MarshalScheme(s Scheme) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("rr: cannot marshal a nil scheme")
	}
	var payload []byte
	var err error
	if m, ok := s.(json.Marshaler); ok {
		payload, err = m.MarshalJSON()
	} else {
		payload, err = json.Marshal(s)
	}
	if err != nil {
		return nil, fmt.Errorf("rr: encoding %s scheme: %w", s.Kind(), err)
	}
	kind, _ := json.Marshal(s.Kind()) // a string always encodes
	env := make([]byte, 0, len(`{"kind":,"scheme":}`)+len(kind)+len(payload))
	env = append(env, `{"kind":`...)
	env = append(env, kind...)
	env = append(env, `,"scheme":`...)
	env = append(env, payload...)
	return append(env, '}'), nil
}

// ErrBadScheme reports an envelope UnmarshalScheme cannot revive: malformed
// JSON, a missing or unregistered kind, or a payload its kind's codec
// rejects. The codec's own error stays wrapped beside it.
var ErrBadScheme = errors.New("rr: invalid scheme envelope")

// UnmarshalScheme revives a Scheme from its kind-tagged envelope, which
// must be the whole of data (see DecodeScheme). Every failure wraps
// ErrBadScheme.
func UnmarshalScheme(data []byte) (Scheme, error) {
	c := strictjson.New(data)
	s, err := DecodeScheme(c)
	if err != nil {
		return nil, err
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadScheme, err)
	}
	return s, nil
}

// DecodeScheme reads a kind-tagged envelope at c, validating its payload
// through the registered decoder for its kind, under strictjson's grammar.
// When the kind precedes the payload, as MarshalScheme writes them, the
// decoder parses the payload where it lies, so the envelope is read in one
// pass; a payload that comes first is validated and set aside, then decoded
// once the kind is known. Every failure wraps ErrBadScheme.
func DecodeScheme(c *strictjson.Cursor) (Scheme, error) {
	var (
		kind    string
		scheme  Scheme
		payload []byte // a payload met before its kind
	)
	err := c.Object(
		strictjson.Member{Name: "kind", Read: func(c *strictjson.Cursor) (err error) {
			kind, err = c.Text()
			return err
		}},
		strictjson.Member{Name: "scheme", Read: func(c *strictjson.Cursor) (err error) {
			if kind == "" {
				payload, err = c.Skip()
				return err
			}
			scheme, err = decodePayload(kind, c)
			return err
		}},
	)
	if err == nil && kind == "" {
		err = errors.New("no kind")
	}
	if err == nil && scheme == nil {
		if payload == nil {
			err = errors.New("no scheme payload")
		} else {
			c := strictjson.New(payload)
			if scheme, err = decodePayload(kind, c); err == nil {
				err = c.End()
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadScheme, err)
	}
	return scheme, nil
}

// decodePayload decodes one kind's payload at c.
func decodePayload(kind string, c *strictjson.Cursor) (Scheme, error) {
	schemeCodecsMu.RLock()
	decode := schemeCodecs[kind]
	schemeCodecsMu.RUnlock()
	if decode == nil {
		return nil, fmt.Errorf("unknown kind %q (registered: %v)", kind, SchemeKinds())
	}
	s, err := decode(c)
	if err != nil {
		return nil, fmt.Errorf("decoding %s scheme: %w", kind, err)
	}
	return s, nil
}

// SchemeVersion returns a short stable fingerprint of a scheme's canonical
// wire form — the value the collection service serves as the /v1/scheme
// ETag, so SDK clients can detect a hot-swapped scheme without re-downloading
// and re-parsing it.
func SchemeVersion(s Scheme) (string, error) {
	data, err := MarshalScheme(s)
	if err != nil {
		return "", err
	}
	return EnvelopeVersion(data), nil
}

// EnvelopeVersion is the SchemeVersion of an envelope MarshalScheme
// produced, for callers that already hold the envelope: marshalling a large
// scheme twice costs more than hashing it.
func EnvelopeVersion(env []byte) string {
	sum := sha256.Sum256(env)
	return hex.EncodeToString(sum[:8])
}

func init() {
	RegisterScheme(DenseKind, func(c *strictjson.Cursor) (Scheme, error) {
		m, err := DecodeMatrix(c)
		if err != nil {
			return nil, err
		}
		return m, nil
	})
}

// The dense scheme: *Matrix satisfies Scheme with report space == domain.
// DisguiseBatchInto is implemented in disguise.go; the methods here are thin
// views over the existing matrix operations, so the dense path stays
// bit-for-bit what it was before the abstraction existed.

// Kind returns DenseKind.
func (m *Matrix) Kind() string { return DenseKind }

// Domain returns the category domain size (== N()).
func (m *Matrix) Domain() int { return m.N() }

// ReportSpace returns the report space size: the dense scheme reports a
// category index, so it equals the domain.
func (m *Matrix) ReportSpace() int { return m.N() }

// DisguiseValue disguises one private value: a draw from column value of the
// matrix, through the cached per-column alias samplers.
func (m *Matrix) DisguiseValue(value int, rng *randx.Source) (int, error) {
	samplers, err := m.Samplers()
	if err != nil {
		return 0, err
	}
	if value < 0 || value >= len(samplers) {
		return 0, fmt.Errorf("%w: value %d of %d categories", ErrShape, value, len(samplers))
	}
	return samplers[value].Draw(rng), nil
}

// EstimateFrom debiases aggregated report counts via the Theorem-1 inversion
// estimator: counts are normalized into the empirical disguised distribution
// and solved back through the matrix's cached factorization. A nil
// categories slice returns the full domain estimate; otherwise the requested
// categories are selected from it.
func (m *Matrix) EstimateFrom(counts []int, categories []int) ([]float64, error) {
	pStar, _, err := m.disguisedFrom(counts)
	if err != nil {
		return nil, err
	}
	est, err := m.EstimateInversionFromDistribution(pStar)
	if err != nil {
		return nil, err
	}
	return pick(est, categories)
}

// Reconstruct is EstimateFrom clipped onto the probability simplex (Clip),
// with the Theorem-6 half-widths (HalfWidths) evaluated at the clipped
// full-domain estimate when z > 0, and the empirical disguised distribution.
func (m *Matrix) Reconstruct(counts, categories []int, z float64) (Reconstruction, error) {
	pStar, total, err := m.disguisedFrom(counts)
	if err != nil {
		return Reconstruction{}, err
	}
	raw, err := m.EstimateInversionFromDistribution(pStar)
	if err != nil {
		return Reconstruction{}, err
	}
	r := Reconstruction{Disguised: pStar, Estimate: Clip(raw)}
	if z > 0 {
		if r.HalfWidth, err = m.HalfWidths(r.Estimate, total, z); err != nil {
			return Reconstruction{}, err
		}
	}
	if r.Estimate, err = pick(r.Estimate, categories); err != nil {
		return Reconstruction{}, err
	}
	if r.HalfWidth != nil {
		r.HalfWidth, _ = pick(r.HalfWidth, categories) // same length, categories just validated
	}
	return r, nil
}

// disguisedFrom validates aggregated report counts and normalizes them into
// the empirical disguised distribution P̂*, returning it with their total.
func (m *Matrix) disguisedFrom(counts []int) (pStar []float64, total int, err error) {
	n := m.N()
	if len(counts) != n {
		return nil, 0, fmt.Errorf("%w: %d counts for %d categories", ErrShape, len(counts), n)
	}
	for k, c := range counts {
		if c < 0 {
			return nil, 0, fmt.Errorf("%w: count[%d] = %d is negative", ErrShape, k, c)
		}
		total += c
	}
	if total == 0 {
		return nil, 0, ErrEmptyData
	}
	pStar = make([]float64, n)
	inv := 1 / float64(total)
	for k, c := range counts {
		pStar[k] = float64(c) * inv
	}
	return pStar, total, nil
}

// pick selects the requested categories from a full-domain vector; nil
// categories returns the vector itself.
func pick(full []float64, categories []int) ([]float64, error) {
	if categories == nil {
		return full, nil
	}
	out := make([]float64, len(categories))
	for i, x := range categories {
		if x < 0 || x >= len(full) {
			return nil, fmt.Errorf("%w: category %d of %d", ErrShape, x, len(full))
		}
		out[i] = full[x]
	}
	return out, nil
}

// Samplers returns the per-column alias samplers of the matrix, built once
// and cached: every disguise path (Disguise, DisguiseBatchInto,
// DisguiseValue, collector.Respondent, the rrclient SDK) shares one table
// per matrix instead of rebuilding n alias tables per call site. SetColumns
// invalidates the cache, so optimizer scratch matrices stay correct. The
// returned slice and its samplers are immutable; callers must not modify it.
func (m *Matrix) Samplers() ([]*randx.Alias, error) {
	if p := m.samplers.Load(); p != nil {
		return *p, nil
	}
	n := m.N()
	samplers := make([]*randx.Alias, n)
	for i := 0; i < n; i++ {
		a, err := randx.NewAlias(m.Column(i))
		if err != nil {
			return nil, fmt.Errorf("rr: column %d: %w", i, err)
		}
		samplers[i] = a
	}
	// Concurrent builders race benignly: both tables are built from the same
	// columns, so whichever store wins serves identical draws.
	m.samplers.Store(&samplers)
	return samplers, nil
}
