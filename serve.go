package optrr

import (
	"optrr/internal/collector"
	"optrr/internal/rrclient"
)

// This file re-exports the serving layer: the respondent-side disguise SDK
// for the LDP collection service (cmd/rrserver), the buffered collector
// writer, and the typed errors a long-lived collection deployment handles.

// CollectionClient is the respondent-side SDK for a running rrserver: it
// fetches the deployed disguise matrix once, samples the disguise locally,
// and reports only the disguised category. Safe for concurrent use.
type CollectionClient = rrclient.Client

// CollectionClientOption configures a CollectionClient (see
// WithCollectionHTTPClient and WithCollectionSeed).
type CollectionClientOption = rrclient.Option

// NewCollectionClient returns a client for the rrserver at baseURL, e.g.
// "http://127.0.0.1:8433". No network traffic happens until the first call.
func NewCollectionClient(baseURL string, opts ...CollectionClientOption) *CollectionClient {
	return rrclient.New(baseURL, opts...)
}

// WithCollectionHTTPClient substitutes the SDK's underlying HTTP client.
var WithCollectionHTTPClient = rrclient.WithHTTPClient

// WithCollectionSeed makes the SDK's disguise draws deterministic — for
// tests and simulations only.
var WithCollectionSeed = rrclient.WithSeed

// CollectorWriter buffers reports for a Collector and flushes them in
// batches, amortizing per-report synchronization. Close flushes and retires
// the writer; both Flush and Close are idempotent.
type CollectorWriter = collector.Writer

// Typed collection errors, for errors.Is checks at the campaign layer.
var (
	// ErrBadReport reports a disguised report outside the scheme's report
	// space.
	ErrBadReport = collector.ErrBadReport
	// ErrNoReports reports a query against an empty collector.
	ErrNoReports = collector.ErrNoReports
	// ErrBadSnapshot reports a corrupt or inconsistent collector snapshot
	// handed to RestoreCollector.
	ErrBadSnapshot = collector.ErrBadSnapshot
	// ErrBadMargin reports a non-positive or non-finite target margin.
	ErrBadMargin = collector.ErrBadMargin
	// ErrWriterClosed reports an ingest through a closed CollectorWriter.
	ErrWriterClosed = collector.ErrWriterClosed
)
