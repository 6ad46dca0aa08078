// Package collector simulates the deployment scenario that motivates the
// paper (Section I): individuals hold private categorical values, each
// applies randomized response locally, and a central collector aggregates
// the disguised reports — never seeing an original value — while maintaining
// a running reconstruction of the population distribution with confidence
// bounds: the closed-form variance of Theorem 6 for a dense disguise
// matrix, the scheme's own distribution-free bounds for a count-mean sketch.
package collector

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"optrr/internal/mining"
	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Collector errors.
var (
	// ErrBadReport reports a disguised value outside the report space.
	ErrBadReport = errors.New("collector: report out of category range")
	// ErrNoReports reports an estimate request before any ingestion.
	ErrNoReports = errors.New("collector: no reports ingested")
	// ErrBadSnapshot reports a corrupted or inconsistent crash-recovery
	// snapshot: Restore refuses it rather than poisoning every subsequent
	// Estimate. Long-lived servers should treat it as "start fresh and
	// alert", not as fatal.
	ErrBadSnapshot = errors.New("collector: invalid snapshot")
	// ErrBadMargin reports a margin target that is not a positive finite
	// number, for which "reports needed" has no meaning.
	ErrBadMargin = errors.New("collector: margin must be a positive finite number")
	// ErrWriterClosed reports ingestion through a Writer after Close.
	ErrWriterClosed = errors.New("collector: writer is closed")
)

// Collector accumulates disguised reports for one attribute under any
// rr.Scheme and answers distribution queries at any point during
// collection. It is safe for concurrent use.
//
// The counts live in cache-line-padded shards of atomic counters over the
// scheme's report space, so memory is O(shards · ReportSpace) whatever the
// domain size. A single report is one atomic add on the ingesting
// goroutine's home shard — no lock, no shared write other than the counter
// cell itself. Batches (IngestBatch, Merge, Writer.Flush) land whole on one
// shard under that shard's mutex, one atomic add per touched cell (see
// IngestBatch); queries take every shard mutex in index order before
// folding, so a batch is either fully in a query's view or not at all, and
// the total is derived from the counts actually read. The counts are the
// whole state: the report metrics Instrument serves are read from them at
// scrape time, not kept beside them.
//
// How a fold becomes estimates and confidence bounds is the one thing that
// differs between scheme kinds, and New picks it once (see bounds): a dense
// *rr.Matrix reconstructs through an LU factorization cached at
// construction, with Theorem-6 half-widths and margin projection; any other
// scheme debiases through its EstimateFrom and states its own bounds when it
// has EstimateWithBound, as the count-mean sketch does.
//
// Instrument attaches live metrics and structured trace events; a bare
// collector carries no instrumentation and pays nothing for the hooks.
//
// The zero value is not usable; construct with New, NewEncoded, Restore or
// RestoreOnto.
type Collector struct {
	scheme rr.Scheme
	// encoded is the scheme's envelope and version, computed on first use
	// (or handed over by NewEncoded) and kept: the scheme is fixed for the
	// collector's lifetime, so snapshots and Merge never encode it again.
	encoded func() (encodedScheme, error)
	bounds  bounds
	set     shardSet
	cursor  atomic.Uint64 // round-robins Writer shard assignment only
	ins     *instrumentation
	// tallies recycles IngestBatch's ReportSpace-wide per-cell tallies
	// (*[]int, zeroed between uses), so steady-state batch landing
	// allocates nothing.
	tallies sync.Pool
}

// New returns a collector for reports disguised with the given scheme,
// striped across shards (rounded up to a power of two; shards <= 0 picks a
// default sized to GOMAXPROCS). A singular dense matrix is accepted —
// ingestion works, estimate queries return rr.ErrSingular.
func New(scheme rr.Scheme, shards int) *Collector {
	return newCollector(scheme, nil, shards)
}

// NewEncoded is New for a caller that already holds the scheme's envelope:
// env must be what rr.MarshalScheme(scheme) returns, and the collector
// writes it into its snapshots as it is instead of encoding the scheme
// again. The caller must not modify env afterwards.
func NewEncoded(scheme rr.Scheme, env []byte, shards int) *Collector {
	return newCollector(scheme, env, shards)
}

// newCollector builds a collector over scheme, encoding the scheme on first
// use when env is nil.
func newCollector(scheme rr.Scheme, env []byte, shards int) *Collector {
	width := scheme.ReportSpace()
	return &Collector{
		scheme: scheme,
		encoded: sync.OnceValues(func() (encodedScheme, error) {
			if env == nil {
				var err error
				if env, err = rr.MarshalScheme(scheme); err != nil {
					return encodedScheme{}, err
				}
			}
			return encodedScheme{env: env, version: rr.EnvelopeVersion(env)}, nil
		}),
		bounds: boundsFor(scheme),
		set:    newShardSet(shards, width),
		tallies: sync.Pool{New: func() any {
			tally := make([]int, width)
			return &tally
		}},
	}
}

// encodedScheme is a scheme's rr.MarshalScheme envelope and the
// rr.EnvelopeVersion of it.
type encodedScheme struct {
	env     []byte
	version string
}

// Scheme returns the scheme the reports are disguised with.
func (c *Collector) Scheme() rr.Scheme { return c.scheme }

// SchemeVersion returns rr.SchemeVersion of the collector's scheme, from
// the envelope the collector encodes once and keeps.
func (c *Collector) SchemeVersion() (string, error) {
	enc, err := c.encoded()
	return enc.version, err
}

// Categories returns the original domain size the scheme covers.
func (c *Collector) Categories() int { return c.scheme.Domain() }

// ReportSpace returns the encoded report space the counters cover: the
// category count for a dense matrix, k·m for a count-mean sketch.
func (c *Collector) ReportSpace() int { return c.set.width }

// Shards returns the number of stripes.
func (c *Collector) Shards() int { return len(c.set.shards) }

// Instrument attaches a recorder and a metrics registry (nil sends the
// metrics to a private unpublished registry; see observe.go). The report
// series — collector.reports and, for dense schemes only, one
// collector.reports.cat<k> per category (sketch reports are (hash row,
// cell) pairs, not categories) — are read from the shards at scrape time
// and count from zero at this call: reports already held, such as a
// restored snapshot's, are not counted. Call before ingestion starts; the
// attachment itself is not synchronized.
func (c *Collector) Instrument(rec obs.Recorder, reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.ins = newInstrumentation(rec, reg)
	c.serveReportSeries(reg)
}

// badReport counts a rejected report and builds its error.
func (c *Collector) badReport(report int) error {
	c.ins.observeBad()
	return fmt.Errorf("%w: %d of report space %d", ErrBadReport, report, c.set.width)
}

// Ingest adds one disguised report: a single atomic increment on the calling
// goroutine's home shard.
func (c *Collector) Ingest(report int) error {
	if report < 0 || report >= c.set.width {
		return c.badReport(report)
	}
	c.set.home().counts[report].Add(1)
	return nil
}

// IngestBatch adds many reports atomically onto one shard; on error the
// collector state is unchanged. The reports are counted into a private
// per-cell tally in the same pass that validates them. Then, under the shard
// mutex that holds the batch together against queries, a second walk over
// the batch gives each distinct report one atomic add of its tally and
// zeroes that cell for the next batch. A batch thus makes one shared write
// per distinct report (at most the report space: 10 for a 1000-report batch
// under a 10-category matrix) instead of one per report. Walking the batch
// rather than the whole tally keeps the cost in proportion to the batch, so
// a short batch over a wide sketch pays nothing for the cells it never
// touches.
func (c *Collector) IngestBatch(reports []int) error {
	tp := c.tallies.Get().(*[]int)
	tally := *tp
	for _, r := range reports {
		if r < 0 || r >= len(tally) {
			return c.badReport(r) // the partial tally is dropped, not pooled
		}
		tally[r]++
	}
	sh := c.set.home()
	sh.mu.Lock()
	for _, r := range reports {
		if n := tally[r]; n != 0 {
			sh.counts[r].Add(int64(n))
			tally[r] = 0
		}
	}
	sh.mu.Unlock()
	c.tallies.Put(tp)
	c.ins.observeBatch(len(reports), c.Count)
	return nil
}

// fold takes one consistent (counts, total) view under every shard lock.
func (c *Collector) fold() ([]int, int) {
	defer c.set.lockAll()()
	return c.set.countsLocked()
}

// Count returns the number of reports ingested so far.
func (c *Collector) Count() int {
	_, total := c.fold()
	return total
}

// Counts returns a consistent copy of the per-report counts.
func (c *Collector) Counts() []int {
	counts, _ := c.fold()
	return counts
}

// Estimate returns the raw debiased frequency estimates for the requested
// original categories, from one consistent fold; with no arguments it
// estimates the full domain. A dense matrix answers through the cached
// factorization (the Theorem-1 inversion estimator); components may fall
// slightly outside [0, 1] for small samples, and Snapshot reports the
// simplex-clipped reconstruction.
func (c *Collector) Estimate(categories ...int) ([]float64, error) {
	counts, total := c.fold()
	if total == 0 {
		return nil, ErrNoReports
	}
	return c.bounds.estimate(counts, total, categories)
}

// Summary is a point-in-time view of the collection.
type Summary struct {
	// Reports is the number of reports behind the estimate.
	Reports int
	// Disguised is the empirical distribution of the dense reports; nil
	// for schemes whose report space is not the category domain.
	Disguised []float64
	// Estimate is the reconstruction the half-widths are stated for: the
	// simplex-clipped inversion for a dense matrix, the raw debiased
	// frequencies otherwise.
	Estimate []float64
	// HalfWidth holds per-category confidence half-widths at Z; nil when
	// the scheme states no bounds.
	HalfWidth []float64
	// Z is the normal quantile the half-widths were computed at.
	Z float64
}

// Snapshot returns the current reconstruction of the requested categories
// (all of them when none are given) from one consistent fold, with
// z-quantile confidence half-widths (z = 1.96 for ~95%; see bounds).
func (c *Collector) Snapshot(z float64, categories ...int) (Summary, error) {
	// !(z > 0) rather than z <= 0: NaN fails every comparison, so a NaN z
	// would otherwise sail through and poison every half-width.
	if !(z > 0) || math.IsInf(z, 1) {
		return Summary{}, fmt.Errorf("collector: z must be a positive finite number, got %v", z)
	}
	counts, total := c.fold()
	if total == 0 {
		return Summary{}, ErrNoReports
	}
	s, err := c.bounds.summarize(counts, total, z, categories)
	if err != nil {
		return Summary{}, err
	}
	c.ins.observeSnapshot(s)
	return s, nil
}

// MarginOfError returns the largest confidence half-width across categories
// at quantile z — "the estimate is within ±e of the truth (per category)
// with the stated confidence".
func (c *Collector) MarginOfError(z float64) (float64, error) {
	s, err := c.Snapshot(z)
	if err != nil {
		return 0, err
	}
	return s.worstHalfWidth(), nil
}

// ReportsForMargin returns the approximate number of reports needed for the
// worst-category half-width at quantile z to shrink to the target margin,
// assuming the current estimate of the distribution. It needs at least one
// ingested report to calibrate, and a dense matrix: a sketch's collision
// term does not shrink with more reports.
func (c *Collector) ReportsForMargin(margin, z float64) (int, error) {
	sv, dense := c.bounds.(*solver)
	if !dense {
		return 0, fmt.Errorf("collector: margin projection needs a dense matrix scheme, not %q", c.scheme.Kind())
	}
	counts, total := c.fold()
	return sv.reportsForMargin(counts, total, margin, z)
}

// HeavyHitters returns the categories whose reconstructed frequency (the
// Summary estimate) is at least threshold, sorted descending (ties by
// category index), at most limit of them when limit > 0. It is
// ScanHeavyHitters without the report count.
func (c *Collector) HeavyHitters(threshold float64, limit int) ([]mining.Frequent, error) {
	hits, _, err := c.ScanHeavyHitters(threshold, limit)
	return hits, err
}

// ScanHeavyHitters is HeavyHitters plus the number of reports the hits were
// estimated from. It folds once and reconstructs the whole domain from that
// fold — a sketch debiases each of its k·m cells once and then hashes every
// category — then runs mining's scan over that vector.
func (c *Collector) ScanHeavyHitters(threshold float64, limit int) (hits []mining.Frequent, reports int, err error) {
	counts, total := c.fold()
	if total == 0 {
		return nil, 0, ErrNoReports
	}
	ests, err := c.bounds.reconstruct(counts, total)
	if err != nil {
		return nil, 0, err
	}
	if hits, err = mining.HeavyHitters(mining.Frequencies(ests), threshold); err != nil {
		return nil, 0, err
	}
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits, total, nil
}

// Merge folds a consistent view of other's counts into c, e.g. to combine
// per-region collectors into a campaign-wide one. Both must carry the same
// rr.SchemeVersion: counts disguised under different matrices or hash
// families do not debias together. other is left unchanged. Merging a
// collector into itself is an error and changes nothing: it would count
// every report twice and overstate the campaign's confidence.
func (c *Collector) Merge(other *Collector) error {
	if other == c {
		return errors.New("collector: cannot merge a collector into itself")
	}
	if c.set.width != other.set.width {
		return fmt.Errorf("%w: merging report space %d into %d", rr.ErrShape, other.set.width, c.set.width)
	}
	cv, err := c.SchemeVersion()
	if err != nil {
		return err
	}
	ov, err := other.SchemeVersion()
	if err != nil {
		return err
	}
	if cv != ov {
		return fmt.Errorf("collector: merge requires identical schemes (version %s vs %s)", cv, ov)
	}
	counts, total := other.fold()
	c.set.home().land(counts)
	c.ins.observeBatch(total, c.Count)
	return nil
}

// Respondent models one individual: a private value and the shared disguise
// matrix. Report draws the disguised value to submit; the private value
// never leaves the struct.
type Respondent struct {
	value    int
	samplers []*randx.Alias
}

// NewRespondent prepares a respondent holding the given private value. The
// alias samplers come from the matrix's shared cache (rr.Matrix.Samplers),
// so a population of respondents over one scheme builds the tables once
// instead of once per respondent.
func NewRespondent(m *rr.Matrix, value int) (*Respondent, error) {
	if value < 0 || value >= m.N() {
		return nil, fmt.Errorf("%w: value %d of %d categories", ErrBadReport, value, m.N())
	}
	samplers, err := m.Samplers()
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	return &Respondent{value: value, samplers: samplers}, nil
}

// Report draws one disguised report. Repeated reports are independent draws
// (callers wanting one-shot semantics should call it once).
func (r *Respondent) Report(rng *randx.Source) int {
	return r.samplers[r.value].Draw(rng)
}

// Simulate runs a complete collection campaign: records values drawn from
// the prior, disguised with m, ingested into a fresh single-shard
// collector. It returns the collector ready for querying.
func Simulate(m *rr.Matrix, prior []float64, records int, rng *randx.Source) (*Collector, error) {
	if records <= 0 {
		return nil, fmt.Errorf("collector: records must be positive, got %d", records)
	}
	alias, err := randx.NewAlias(prior)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	originals := make([]int, records)
	for i := range originals {
		originals[i] = alias.Draw(rng)
	}
	disguised, err := m.Disguise(originals, rng)
	if err != nil {
		return nil, err
	}
	c := New(m, 1)
	if err := c.IngestBatch(disguised); err != nil {
		return nil, err
	}
	return c, nil
}

// Deprecated: use New; kept only because perfbench, pinned with the benchmark, calls it.
func NewSharded(m *rr.Matrix, shards int) *Collector { return New(m, shards) }

// Deprecated: use New; kept only because perfbench, pinned with the benchmark, calls it.
func NewSketch(scheme rr.Scheme, shards int) *Collector { return New(scheme, shards) }

// Deprecated: use Collector; kept only because perfbench, pinned with the benchmark, names it.
type SketchCollector = Collector
