// Package sketch implements the Count-Mean-Sketch randomized-response scheme
// that decouples the category domain size from the disguise-matrix size: the
// dense schemes of package rr carry an n×n matrix, hopeless when categories
// are URLs or app IDs (n = 10⁶), while the sketch hashes each record through
// one of k pairwise-independent hash functions into a small hash_range m and
// disguises only the m-ary hashed value with an inner m×m RR matrix — any
// OptRR-optimized or Holohan constant-diagonal matrix plugs straight in.
//
// A report is the pair (hash index j, disguised hash cell), encoded as the
// single integer j·m + cell, so the report space is k·m, independent of the
// domain. Aggregated reports form a k×m count grid; estimation debiases each
// row through the inner matrix inverse (the Theorem-1 inversion of the
// paper, applied per row) and then removes the expected hash-collision mass:
// under a pairwise-independent family every other category lands in a given
// cell with probability 1/m, so f̂(x) averages (m·t̂_j[h_j(x)] − 1)/(m − 1)
// over the rows. The error decomposes into the sampling and collision terms
// of metrics.CMSRowVariance and metrics.CMSCollisionStd — Pastore's
// hash_range-vs-accuracy trade-off.
package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"optrr/internal/matrix"
	"optrr/internal/metrics"
	"optrr/internal/par"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/strictjson"
)

// Kind is the wire identifier of the Count-Mean-Sketch scheme (see
// rr.RegisterScheme).
const Kind = "cms"

// hashPrime is the Mersenne prime 2⁶¹−1 over which the pairwise-independent
// family (a·x + b) mod p is defined; the domain must fit below it.
const hashPrime = uint64(1)<<61 - 1

// ErrBadParams reports invalid sketch parameters.
var ErrBadParams = errors.New("sketch: invalid parameters")

// maxHashes bounds the sketch rows New accepts. Deployed sketches use tens
// to tens of thousands of rows; the bound keeps a decoded scheme from
// allocating hash coefficients for an absurd row count: at 2¹⁶ rows a
// hostile envelope costs 1 MB of coefficients, and a collector restored
// from it k·m counters per shard.
const maxHashes = 1 << 16

// CMSScheme is a Count-Mean-Sketch randomized-response scheme. It implements
// rr.Scheme; values are immutable after construction and safe for concurrent
// use.
type CMSScheme struct {
	domain   int
	hashes   int // k: number of hash functions / sketch rows
	rangeM   int // m: hash range / inner matrix size
	hashSeed uint64
	a, b     []uint64   // per-row hash coefficients, derived from hashSeed
	inner    *rr.Matrix // m×m disguise matrix for hashed values
	// inverse returns the inverse of inner that estimation runs on. New
	// only factorizes inner, which is how it refuses a singular one; the
	// inverse is built from that factorization on the first call, bit for
	// bit what inner.Inverse() returns, so a scheme that never estimates (a
	// respondent's) never pays for it. A struct copy shares it.
	inverse func() (*matrix.Dense, error)
}

// New builds a Count-Mean-Sketch scheme over domain categories, with hashes
// pairwise-independent hash functions into [0, hashRange) and the given
// inner disguise matrix (hashRange×hashRange, must be invertible — the
// inversion estimator runs per sketch row; a singular one is rr.ErrSingular).
// The hash coefficients are derived deterministically from hashSeed, so
// clients and server agree on the family by exchanging only the seed.
func New(domain, hashes, hashRange int, inner *rr.Matrix, hashSeed uint64) (*CMSScheme, error) {
	if domain < 1 || uint64(domain) >= hashPrime {
		return nil, fmt.Errorf("%w: domain %d (want 1 ≤ domain < 2⁶¹−1)", ErrBadParams, domain)
	}
	if hashes < 1 || hashes > maxHashes {
		return nil, fmt.Errorf("%w: %d hash functions (want 1 ≤ hashes ≤ %d)", ErrBadParams, hashes, maxHashes)
	}
	if hashRange < 2 {
		return nil, fmt.Errorf("%w: hash range %d (want ≥ 2)", ErrBadParams, hashRange)
	}
	if inner == nil {
		return nil, fmt.Errorf("%w: nil inner matrix", ErrBadParams)
	}
	if inner.N() != hashRange {
		return nil, fmt.Errorf("%w: inner matrix over %d categories for hash range %d", ErrBadParams, inner.N(), hashRange)
	}
	lu := matrix.NewLU()
	if err := inner.FactorizeInto(lu); err != nil {
		return nil, fmt.Errorf("sketch: inner matrix: %w", err)
	}
	s := &CMSScheme{
		domain:   domain,
		hashes:   hashes,
		rangeM:   hashRange,
		hashSeed: hashSeed,
		a:        make([]uint64, hashes),
		b:        make([]uint64, hashes),
		inner:    inner.Clone(),
		inverse:  sync.OnceValues(lu.Inverse),
	}
	// Row j's coefficients are the first draws of randx.Stream(hashSeed, j).
	// One Source is reseeded per row, so even maxHashes rows cost no
	// allocation each.
	var r randx.Source
	for j := 0; j < hashes; j++ {
		r.Seed(randx.StreamSeed(hashSeed, uint64(j)))
		s.a[j] = 1 + r.Uint64()%(hashPrime-1)
		s.b[j] = r.Uint64() % hashPrime
	}
	return s, nil
}

// NewKRR builds a sketch whose inner matrix is the closed-form ε-optimal
// k-ary randomized response of Holohan et al.: constant diagonal
// γ(ε) = e^ε / (e^ε + m − 1), uniform off-diagonal — the natural baseline
// before plugging in an OptRR-optimized matrix.
func NewKRR(domain, hashes, hashRange int, epsilon float64, hashSeed uint64) (*CMSScheme, error) {
	if epsilon <= 0 || math.IsInf(epsilon, 0) || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("%w: epsilon %v", ErrBadParams, epsilon)
	}
	if hashRange < 2 {
		return nil, fmt.Errorf("%w: hash range %d (want ≥ 2)", ErrBadParams, hashRange)
	}
	e := math.Exp(epsilon)
	gamma := e / (e + float64(hashRange) - 1)
	inner, err := rr.Warner(hashRange, gamma)
	if err != nil {
		return nil, fmt.Errorf("sketch: closed-form inner matrix: %w", err)
	}
	return New(domain, hashes, hashRange, inner, hashSeed)
}

// Kind returns "cms".
func (s *CMSScheme) Kind() string { return Kind }

// Domain returns the original category domain size.
func (s *CMSScheme) Domain() int { return s.domain }

// ReportSpace returns k·m: reports are j·m + cell for hash row j and
// disguised cell.
func (s *CMSScheme) ReportSpace() int { return s.hashes * s.rangeM }

// Hashes returns k, the number of hash functions (sketch rows).
func (s *CMSScheme) Hashes() int { return s.hashes }

// HashRange returns m, the hash range and inner matrix size.
func (s *CMSScheme) HashRange() int { return s.rangeM }

// HashSeed returns the seed the hash family is derived from.
func (s *CMSScheme) HashSeed() uint64 { return s.hashSeed }

// Inner returns the inner disguise matrix. The returned value aliases the
// scheme's immutable copy; callers must treat it as read-only.
func (s *CMSScheme) Inner() *rr.Matrix { return s.inner }

// Warm builds the inverse of the inner matrix that estimation runs on, if
// it is not built yet. Estimation builds it on first use; a server warms
// the scheme at boot so that its first query does not pay for it.
func (s *CMSScheme) Warm() error {
	_, err := s.inverse()
	return err
}

// Hash returns h_j(value) ∈ [0, m): the pairwise-independent affine stage
// (a_j·value + b_j) mod p over the Mersenne prime p = 2⁶¹−1, scrambled
// through a bijective 64-bit finalizer before the mod-m reduction. The
// finalizer matters: reducing the affine value directly makes the cells of a
// sequential domain piecewise arithmetic progressions mod m — far more
// balanced than a random function — which silently breaks the 1/m collision
// mass the debias step subtracts. An injection preserves the family's
// pairwise independence while destroying that joint structure. Exported so
// collectors and tests can locate a category's cell in each sketch row.
func (s *CMSScheme) Hash(j, value int) int {
	return int(mix64(s.affine(j, uint64(value))) % uint64(s.rangeM))
}

// affine is Hash's affine stage (a_j·x + b_j) mod p. Consecutive values
// differ by exactly a_j mod p, which is what lets the full-domain scan step
// it instead of recomputing it.
func (s *CMSScheme) affine(j int, x uint64) uint64 {
	// a, x < p < 2⁶¹ so the 128-bit product's high word is < 2⁵⁸ < p and
	// Div64 cannot panic; the sum after reduction fits 62 bits.
	hi, lo := bits.Mul64(s.a[j], x)
	_, rem := bits.Div64(hi, lo, hashPrime)
	return (rem + s.b[j]) % hashPrime
}

// mix64 is the splitmix64 finalizer: a fixed bijection on 64-bit words with
// full avalanche behavior.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Report encodes (hash row j, disguised cell) as the single report integer.
func (s *CMSScheme) Report(j, cell int) int { return j*s.rangeM + cell }

// RowCell decodes a report integer back into (hash row, disguised cell).
func (s *CMSScheme) RowCell(report int) (j, cell int) {
	return report / s.rangeM, report % s.rangeM
}

// DisguiseValue disguises one private value: a uniformly chosen hash row j,
// the value hashed into that row's cell, and the cell disguised by a draw
// from the inner matrix column — so the report reveals the raw value only
// through the hash-then-RR channel.
func (s *CMSScheme) DisguiseValue(value int, rng *randx.Source) (int, error) {
	samplers, err := s.inner.Samplers()
	if err != nil {
		return 0, err
	}
	return s.disguise(value, rng, samplers)
}

func (s *CMSScheme) disguise(value int, rng *randx.Source, samplers []*randx.Alias) (int, error) {
	if value < 0 || value >= s.domain {
		return 0, fmt.Errorf("%w: value %d of %d categories", rr.ErrShape, value, s.domain)
	}
	j := rng.Intn(s.hashes)
	cell := s.Hash(j, value)
	return s.Report(j, samplers[cell].Draw(rng)), nil
}

// DisguiseBatchInto disguises records into dst (same length) through
// par.Chunks, so the output depends only on (scheme, records, seed), never
// on the worker count.
func (s *CMSScheme) DisguiseBatchInto(dst, records []int, seed uint64, workers int) error {
	if len(dst) != len(records) {
		return fmt.Errorf("%w: dst length %d for %d records", rr.ErrShape, len(dst), len(records))
	}
	samplers, err := s.inner.Samplers()
	if err != nil {
		return err
	}
	return par.Chunks(len(records), seed, workers, func(lo, hi int, rng *randx.Source) error {
		for k := lo; k < hi; k++ {
			rep, err := s.disguise(records[k], rng, samplers)
			if err != nil {
				return fmt.Errorf("%w: record %d has category %d", rr.ErrShape, k, records[k])
			}
			dst[k] = rep
		}
		return nil
	})
}

// EstimateFrom debiases aggregated report counts (length ReportSpace(),
// row-major k×m) into frequency estimates for the requested categories; a
// nil categories slice means the full domain. The estimate for category x is
// the row-weighted mean of the collision-debiased cell estimates
// (m·t̂_j[h_j(x)] − 1)/(m − 1), unbiased over the hash family.
func (s *CMSScheme) EstimateFrom(counts []int, categories []int) ([]float64, error) {
	est, _, err := s.estimate(counts, categories, 0, 0)
	return est, err
}

// EstimateWithBound is EstimateFrom plus a per-category error bound: z
// standard deviations of the empirical sampling variance (the row-weighted
// metrics.CMSRowVariance terms) plus z times the metrics.CMSCollisionStd
// collision term for the given ell2 = Σ_y f(y)² (use 1 when no better bound
// on the true distribution is known).
func (s *CMSScheme) EstimateWithBound(counts []int, categories []int, z, ell2 float64) (ests, bounds []float64, err error) {
	return s.estimate(counts, categories, z, ell2)
}

// Reconstruct implements rr.Scheme: the EstimateFrom frequencies and, when
// z > 0, their EstimateWithBound half-widths stated at the worst-case
// ℓ² = 1, since nothing better is known about the true distribution.
func (s *CMSScheme) Reconstruct(counts, categories []int, z float64) (rr.Reconstruction, error) {
	ests, bounds, err := s.estimate(counts, categories, z, 1)
	if err != nil {
		return rr.Reconstruction{}, err
	}
	return rr.Reconstruction{Estimate: ests, HalfWidth: bounds}, nil
}

// scanChunk is how many categories the full-domain scan covers per pass over
// the sketch rows: the chunk's running estimates (16 KiB) stay in L1 cache
// while each row adds its contribution.
const scanChunk = 2048

// estimate pays only for the cells the query touches. Named categories
// debias just the ≤ k·|categories| cells they hash to (O(m) each); the full
// domain debiases all k·m cells once and then hashes every category. The
// bounds slice carries the summed row variances until the final step turns
// them into half-widths. Every sum runs in a fixed order — cell sums over v
// ascending, category sums over rows ascending — so a category's estimate
// and bound are bit for bit the same on either path.
func (s *CMSScheme) estimate(counts []int, categories []int, z, ell2 float64) (ests, bounds []float64, err error) {
	rowTotals, weights, err := s.rowWeights(counts)
	if err != nil {
		return nil, nil, err
	}
	for _, x := range categories {
		if x < 0 || x >= s.domain {
			return nil, nil, fmt.Errorf("%w: category %d of %d", rr.ErrShape, x, s.domain)
		}
	}
	inv, err := s.inverse()
	if err != nil {
		return nil, nil, err
	}
	withBound := z > 0
	if categories == nil {
		ests, bounds, err = s.scanDomain(inv, counts, rowTotals, weights, withBound)
	} else {
		ests, bounds, err = s.pointQuery(inv, counts, rowTotals, weights, categories, withBound)
	}
	if err != nil || !withBound {
		return ests, bounds, err
	}
	collision := metrics.CMSCollisionStd(ell2, s.rangeM, s.hashes)
	for i, variance := range bounds {
		bounds[i] = z * (math.Sqrt(variance) + collision)
	}
	return ests, bounds, nil
}

// rowWeights validates the k×m count grid and returns each row's report
// count N_j and weight N_j/N. Rows without reports get weight 0 and are
// skipped by the estimators; the remaining weights are renormalized over the
// observed mass.
func (s *CMSScheme) rowWeights(counts []int) (rowTotals []int, weights []float64, err error) {
	if len(counts) != s.ReportSpace() {
		return nil, nil, fmt.Errorf("%w: %d counts for report space %d", rr.ErrShape, len(counts), s.ReportSpace())
	}
	rowTotals = make([]int, s.hashes)
	total := 0
	for j := range rowTotals {
		n := 0
		for v, c := range counts[j*s.rangeM : (j+1)*s.rangeM] {
			if c < 0 {
				return nil, nil, fmt.Errorf("%w: count[%d] = %d is negative", rr.ErrShape, j*s.rangeM+v, c)
			}
			n += c
		}
		rowTotals[j] = n
		total += n
	}
	if total == 0 {
		return nil, nil, rr.ErrEmptyData
	}
	weights = make([]float64, s.hashes)
	for j, n := range rowTotals {
		weights[j] = float64(n) / float64(total)
	}
	return rowTotals, weights, nil
}

// disguisedRow fills pStar with row j's empirical disguised distribution
// p̂*_j (rowTotal > 0).
func (s *CMSScheme) disguisedRow(pStar []float64, counts []int, j, rowTotal int) {
	invTotal := 1 / float64(rowTotal)
	for v, c := range counts[j*s.rangeM : (j+1)*s.rangeM] {
		pStar[v] = float64(c) * invTotal
	}
}

// debiasCell returns cell u's collision-debiased estimate (m·t̂[u] − 1)/(m − 1)
// with t̂[u] = Σ_v inv[u][v]·p̂*[v] — one row of the Theorem-1 inversion —
// and, when withBound is set, its metrics.CMSRowVariance (which already
// carries the (m/(m−1))² debias scale).
func (s *CMSScheme) debiasCell(inv *matrix.Dense, pStar []float64, rowTotal, u int, withBound bool) (est, variance float64, err error) {
	invRow := inv.RowView(u)
	var t float64
	for v, iv := range invRow {
		t += iv * pStar[v]
	}
	m := float64(s.rangeM)
	est = (m*t - 1) / (m - 1)
	if withBound {
		variance, err = metrics.CMSRowVariance(invRow, pStar, rowTotal, s.rangeM)
	}
	return est, variance, err
}

// pointQuery estimates the named categories row by row, debiasing a cell
// the first time a category lands in it: O(k·m) to read the rows plus O(m)
// per distinct cell touched, instead of O(k·m²) for the whole grid.
func (s *CMSScheme) pointQuery(inv *matrix.Dense, counts, rowTotals []int, weights []float64, categories []int, withBound bool) (ests, variances []float64, err error) {
	ests = make([]float64, len(categories))
	if withBound {
		variances = make([]float64, len(categories))
	}
	pStar := make([]float64, s.rangeM)
	cellEst := make([]float64, s.rangeM)
	cellVar := make([]float64, s.rangeM)
	// debiased[u] == j+1 marks cell u as already computed for row j.
	debiased := make([]int, s.rangeM)
	for j, rowTotal := range rowTotals {
		if rowTotal == 0 {
			continue
		}
		s.disguisedRow(pStar, counts, j, rowTotal)
		w := weights[j]
		for i, x := range categories {
			u := s.Hash(j, x)
			if debiased[u] != j+1 {
				debiased[u] = j + 1
				if cellEst[u], cellVar[u], err = s.debiasCell(inv, pStar, rowTotal, u, withBound); err != nil {
					return nil, nil, err
				}
			}
			ests[i] += w * cellEst[u]
			if withBound {
				variances[i] += w * w * cellVar[u]
			}
		}
	}
	return ests, variances, nil
}

// scanDomain estimates every category: each of the k·m cells is debiased
// once, then the domain is walked in scanChunk blocks, row by row. Within a
// row the affine hash stage steps from one category to the next by a single
// modular add — exact, since v + a_j < 2p < 2⁶² — so a (row, category) pair
// costs one mix64, one mod-m reduction and one gather; only each block's
// first category pays Hash's 128-bit division.
func (s *CMSScheme) scanDomain(inv *matrix.Dense, counts, rowTotals []int, weights []float64, withBound bool) (ests, variances []float64, err error) {
	m := s.rangeM
	cellEst := make([]float64, s.hashes*m)
	cellVar := make([]float64, s.hashes*m)
	pStar := make([]float64, m)
	for j, rowTotal := range rowTotals {
		if rowTotal == 0 {
			continue
		}
		s.disguisedRow(pStar, counts, j, rowTotal)
		d, rv := cellEst[j*m:(j+1)*m], cellVar[j*m:(j+1)*m]
		for u := range d {
			if d[u], rv[u], err = s.debiasCell(inv, pStar, rowTotal, u, withBound); err != nil {
				return nil, nil, err
			}
		}
	}
	ests = make([]float64, s.domain)
	if withBound {
		variances = make([]float64, s.domain)
	}
	mod := uint64(m)
	for lo := 0; lo < s.domain; lo += scanChunk {
		hi := min(lo+scanChunk, s.domain)
		for j, w := range weights {
			if rowTotals[j] == 0 {
				continue
			}
			d, rv, ww := cellEst[j*m:(j+1)*m], cellVar[j*m:(j+1)*m], w*w
			a, v := s.a[j], s.affine(j, uint64(lo))
			for x := lo; x < hi; x++ {
				u := mix64(v) % mod
				ests[x] += w * d[u]
				if withBound {
					variances[x] += ww * rv[u]
				}
				if v += a; v >= hashPrime {
					v -= hashPrime
				}
			}
		}
	}
	return ests, variances, nil
}

// MarshalJSON implements json.Marshaler. The wire form carries the hash
// family as its seed and the inner matrix in the rr matrix format:
//
//	{"domain":…,"hashes":…,"hash_range":…,"hash_seed":…,"inner":{…}}
//
// These are the bytes json.Marshal writes for a struct of those members,
// but the inner matrix's encoding is appended as it is instead of letting
// encoding/json re-scan and compact it: the inner matrix is nearly all of
// the payload (1.4 MB at m = 256).
func (s *CMSScheme) MarshalJSON() ([]byte, error) {
	inner := []byte("null")
	if s.inner != nil {
		var err error
		if inner, err = s.inner.MarshalJSON(); err != nil {
			return nil, err
		}
	}
	b := make([]byte, 0, len(inner)+128)
	b = append(b, `{"domain":`...)
	b = strconv.AppendInt(b, int64(s.domain), 10)
	b = append(b, `,"hashes":`...)
	b = strconv.AppendInt(b, int64(s.hashes), 10)
	b = append(b, `,"hash_range":`...)
	b = strconv.AppendInt(b, int64(s.rangeM), 10)
	b = append(b, `,"hash_seed":`...)
	b = strconv.AppendUint(b, s.hashSeed, 10)
	b = append(b, `,"inner":`...)
	b = append(b, inner...)
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler, revalidating through New. data
// must hold the one scheme (see decode).
func (s *CMSScheme) UnmarshalJSON(data []byte) error {
	c := strictjson.New(data)
	decoded, err := decode(c)
	if err != nil {
		return err
	}
	if err := c.End(); err != nil {
		return fmt.Errorf("sketch: decoding scheme: %w", err)
	}
	*s = *decoded
	return nil
}

// decode reads the wire form at c under strictjson's grammar, the inner
// matrix where it lies, and rebuilds the scheme through New, so every
// invariant is checked again.
func decode(c *strictjson.Cursor) (*CMSScheme, error) {
	var (
		domain, hashes, hashRange int
		hashSeed                  uint64
		inner                     *rr.Matrix
	)
	integer := func(dst *int) func(*strictjson.Cursor) error {
		return func(c *strictjson.Cursor) (err error) {
			*dst, err = c.Int()
			return err
		}
	}
	err := c.Object(
		strictjson.Member{Name: "domain", Read: integer(&domain)},
		strictjson.Member{Name: "hashes", Read: integer(&hashes)},
		strictjson.Member{Name: "hash_range", Read: integer(&hashRange)},
		strictjson.Member{Name: "hash_seed", Read: func(c *strictjson.Cursor) (err error) {
			hashSeed, err = c.Uint64()
			return err
		}},
		strictjson.Member{Name: "inner", Read: func(c *strictjson.Cursor) (err error) {
			inner, err = rr.DecodeMatrix(c)
			return err
		}},
	)
	if err != nil {
		return nil, fmt.Errorf("sketch: decoding scheme: %w", err)
	}
	if inner == nil {
		return nil, fmt.Errorf("%w: missing inner matrix", ErrBadParams)
	}
	return New(domain, hashes, hashRange, inner, hashSeed)
}

func init() {
	rr.RegisterScheme(Kind, func(c *strictjson.Cursor) (rr.Scheme, error) {
		s, err := decode(c)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
}
