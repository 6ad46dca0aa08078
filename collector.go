package optrr

import (
	"optrr/internal/collector"
	"optrr/internal/randx"
)

// This file re-exports the collection-campaign layer: local randomization at
// the respondent, incremental aggregation at the collector, and running
// reconstruction with confidence intervals.

// Collector accumulates disguised reports under any Scheme and answers
// distribution queries at any point during collection. It is safe for
// concurrent use: counts are striped across cache-line-padded shards, and
// queries fold one consistent point in time.
type Collector = collector.Collector

// CollectionSummary is a point-in-time view of a collection: the
// reconstruction and its confidence half-widths.
type CollectionSummary = collector.Summary

// Respondent holds one private value and submits disguised reports.
type Respondent = collector.Respondent

// NewCollector returns a collector for reports disguised with the given
// scheme — a dense *Matrix or a SketchScheme — striped across shards
// (<= 0 picks a default sized to GOMAXPROCS).
func NewCollector(s Scheme, shards int) *Collector { return collector.New(s, shards) }

// RestoreCollector rebuilds a collector from a snapshot produced by its
// MarshalJSON (or a legacy dense snapshot), for crash recovery of a running
// campaign.
func RestoreCollector(data []byte, shards int) (*Collector, error) {
	return collector.Restore(data, shards)
}

// NewRespondent prepares a respondent holding the given private value.
func NewRespondent(m *Matrix, value int) (*Respondent, error) {
	return collector.NewRespondent(m, value)
}

// SimulateCollection runs a complete campaign: records values drawn from the
// prior, disguised with m, ingested into a fresh collector.
func SimulateCollection(m *Matrix, prior []float64, records int, rng *randx.Source) (*Collector, error) {
	return collector.Simulate(m, prior, records, rng)
}
