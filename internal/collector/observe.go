package collector

import (
	"fmt"

	"optrr/internal/obs"
	"optrr/internal/rr"
)

// This file instruments the collection pipeline. A bare Collector carries a
// nil *instrumentation and pays nothing; Instrument attaches counters
// (malformed reports, batches, snapshots), gauges (running confidence
// margin), structured events ("collector.batch" per batch,
// "collector.snapshot" per consistency query) and the report series. Those
// series (report volume, per-category counts) cost ingestion nothing: the
// shard counts already hold them, so a scrape reads them from there.
// Single-report Ingest touches no metric — at millions of respondents even
// one shared increment per report would bring back the cross-core
// contention the shards remove.

// instrumentation caches the metric pointers the ingestion path touches.
type instrumentation struct {
	rec        obs.Recorder
	batches    *obs.Counter   // collector.batches
	badReports *obs.Counter   // collector.bad_reports
	snapshots  *obs.Counter   // collector.snapshots
	margin     *obs.Gauge     // collector.margin (worst half-width at last snapshot)
	batchSize  *obs.Histogram // collector.batch_size
}

// newInstrumentation builds the event-driven metric set on reg. A nil rec
// records nothing.
func newInstrumentation(rec obs.Recorder, reg *obs.Registry) *instrumentation {
	return &instrumentation{
		rec:        obs.OrNop(rec),
		batches:    reg.Counter("collector.batches"),
		badReports: reg.Counter("collector.bad_reports"),
		snapshots:  reg.Counter("collector.snapshots"),
		margin:     reg.Gauge("collector.margin"),
		batchSize: reg.Histogram("collector.batch_size",
			[]float64{1, 10, 100, 1000, 10000, 100000}),
	}
}

// serveReportSeries registers the report series as func-backed counters
// over the shards: collector.reports sums every cell, and a dense scheme's
// collector.reports.cat<k> sums cell k. Each subtracts what the shards held
// now, so the series count the reports landed after Instrument — single
// reports, batches, merges and flushed Writer buffers alike — and agree
// with Count less that baseline. A scrape takes no shard lock.
func (c *Collector) serveReportSeries(reg *obs.Registry) {
	base, total := c.fold()
	set := &c.set
	reg.CounterFunc("collector.reports", func() int64 { return set.total() - int64(total) })
	if _, dense := c.scheme.(*rr.Matrix); !dense {
		return
	}
	for k, b := range base {
		reg.CounterFunc(fmt.Sprintf("collector.reports.cat%d", k), func() int64 { return set.cell(k) - int64(b) })
	}
}

// observeBad counts a rejected report.
func (ins *instrumentation) observeBad() {
	if ins == nil {
		return
	}
	ins.badReports.Inc()
}

// observeBatch updates the batch counters and, when the recorder is on,
// emits a "collector.batch" event with the collector's running total. total
// is called only then: it takes every shard lock to fold the counts.
func (ins *instrumentation) observeBatch(size int, total func() int) {
	if ins == nil {
		return
	}
	ins.batches.Inc()
	ins.batchSize.Observe(float64(size))
	if ins.rec.Enabled() {
		ins.rec.Record("collector.batch", obs.Fields{
			"size":  size,
			"total": total(),
		})
	}
}

// observeSnapshot publishes the running reconstruction: the worst
// half-width moves the margin gauge, and the full per-category view goes to
// the trace.
func (ins *instrumentation) observeSnapshot(s Summary) {
	if ins == nil {
		return
	}
	ins.snapshots.Inc()
	worst := worstHalfWidth(s.HalfWidth)
	ins.margin.Set(worst)
	if ins.rec.Enabled() {
		ins.rec.Record("collector.snapshot", obs.Fields{
			"reports":    s.Reports,
			"z":          s.Z,
			"margin":     worst,
			"estimate":   append([]float64(nil), s.Estimate...),
			"half_width": append([]float64(nil), s.HalfWidth...),
		})
	}
}
