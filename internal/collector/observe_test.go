package collector

import (
	"encoding/json"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/rr"
)

func instrumentedCollector(t *testing.T) (*Collector, *obs.MemoryRecorder, *obs.Registry) {
	t.Helper()
	m, err := rr.Warner(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, 1)
	rec := obs.NewMemory()
	reg := obs.NewRegistry()
	c.Instrument(rec, reg)
	return c, rec, reg
}

func TestInstrumentCounters(t *testing.T) {
	c, rec, reg := instrumentedCollector(t)
	if err := c.IngestBatch([]int{0, 1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(99); err == nil {
		t.Fatal("bad report accepted")
	}

	if got := reg.Counter("collector.reports").Value(); got != 5 {
		t.Fatalf("collector.reports = %d, want 5", got)
	}
	if got := reg.Counter("collector.batches").Value(); got != 1 {
		t.Fatalf("collector.batches = %d, want 1", got)
	}
	if got := reg.Counter("collector.bad_reports").Value(); got != 1 {
		t.Fatalf("collector.bad_reports = %d, want 1", got)
	}
	for k, want := range []int64{1, 3, 1} {
		if got := reg.Counter("collector.reports.cat" + string(rune('0'+k))).Value(); got != want {
			t.Fatalf("cat%d = %d, want %d", k, got, want)
		}
	}

	batches := rec.Named("collector.batch")
	if len(batches) != 1 {
		t.Fatalf("got %d batch events, want 1", len(batches))
	}
	if batches[0].Fields["size"] != 4 || batches[0].Fields["total"] != 4 {
		t.Fatalf("batch event = %v", batches[0].Fields)
	}
}

func TestInstrumentSnapshotEventAndMarginGauge(t *testing.T) {
	c, rec, reg := instrumentedCollector(t)
	if err := c.IngestBatch([]int{0, 0, 1, 2, 1, 0, 2, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Named("collector.snapshot")
	if len(evs) != 1 {
		t.Fatalf("got %d snapshot events, want 1", len(evs))
	}
	f := evs[0].Fields
	if f["reports"] != 10 || f["z"] != 1.96 {
		t.Fatalf("snapshot event = %v", f)
	}
	margin := f["margin"].(float64)
	if margin <= 0 {
		t.Fatalf("margin = %v", margin)
	}
	if got := reg.Gauge("collector.margin").Value(); got != margin {
		t.Fatalf("margin gauge = %v, event margin = %v", got, margin)
	}
	est := f["estimate"].([]float64)
	if len(est) != 3 || len(f["half_width"].([]float64)) != len(s.HalfWidth) {
		t.Fatalf("snapshot arrays malformed: %v", f)
	}
	if got := reg.Counter("collector.snapshots").Value(); got != 1 {
		t.Fatalf("collector.snapshots = %d, want 1", got)
	}
}

func TestInstrumentNilRegistryStillWorks(t *testing.T) {
	m, err := rr.Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, 1)
	rec := obs.NewMemory()
	c.Instrument(rec, nil) // metrics go to a private registry; events still flow
	if err := c.IngestBatch([]int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Named("collector.batch")) != 1 {
		t.Fatal("no batch event with nil registry")
	}
}

// TestReportSeriesCountLandedReports pins what the scrape-time report
// series count: every report landed since Instrument, merged reports
// included and a Writer's only once flushed, and none of the reports a
// restored snapshot already held.
func TestReportSeriesCountLandedReports(t *testing.T) {
	m := mustWarner(t, 3, 0.7)
	donor := New(m, 2)
	if err := donor.IngestBatch([]int{0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(donor)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Restore(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(nil, reg)
	check := func(when string, want ...int64) {
		t.Helper()
		for i, name := range []string{"collector.reports", "collector.reports.cat0", "collector.reports.cat1", "collector.reports.cat2"} {
			if got := reg.Counter(name).Value(); got != want[i] {
				t.Fatalf("%s: %s = %d, want %d", when, name, got, want[i])
			}
		}
	}
	check("after Restore", 0, 0, 0, 0)

	if err := c.Merge(donor); err != nil {
		t.Fatal(err)
	}
	check("after Merge", 4, 2, 1, 1)

	w := c.NewWriter(100)
	for i := 0; i < 2; i++ {
		if err := w.Ingest(1); err != nil {
			t.Fatal(err)
		}
	}
	check("with a Writer's reports buffered", 4, 2, 1, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after Flush", 6, 2, 3, 1)
}

// TestUninstrumentedAndNopIngestAllocations guards the zero-overhead claim.
// Neither a bare collector nor one instrumented with a registry and a no-op
// recorder may allocate on any ingest path: a single report, a small batch,
// a 1000-report dense batch (4 distinct cells in the pooled tally), a
// 1000-report sketch batch (hundreds of distinct cells out of k·m = 4096),
// or a Writer's Ingest and Flush. No batch may fold the shards for a trace
// event nobody records. The instrumented registry then reads back every
// landed report.
func TestUninstrumentedAndNopIngestAllocations(t *testing.T) {
	m, err := rr.Warner(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cms := testCMS(t, 100000, 16, 256)
	small := []int{0, 1, 2, 3, 2, 1}
	dense := make([]int, 1000)
	for i := range dense {
		dense[i] = (i * 7) % 4
	}
	sketched := sketchReports(t, cms, 1000, 1)
	for _, instrumented := range []bool{false, true} {
		c, sc := New(m, 1), New(cms, 1)
		reg, sreg := obs.NewRegistry(), obs.NewRegistry()
		if instrumented {
			c.Instrument(nil, reg)
			sc.Instrument(nil, sreg)
		}
		w := c.NewWriter(0)
		for _, tc := range []struct {
			name   string
			ingest func() error
		}{
			{"Ingest", func() error { return c.Ingest(2) }},
			{"small IngestBatch", func() error { return c.IngestBatch(small) }},
			{"dense 1000-report IngestBatch", func() error { return c.IngestBatch(dense) }},
			{"sketch 1000-report IngestBatch", func() error { return sc.IngestBatch(sketched) }},
			{"Writer Ingest and Flush", func() error {
				if err := w.Ingest(3); err != nil {
					return err
				}
				return w.Flush()
			}},
		} {
			if n := testing.AllocsPerRun(200, func() {
				if err := tc.ingest(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("%s (instrumented %v) allocated %v times per run, want 0", tc.name, instrumented, n)
			}
		}
		if !instrumented {
			continue
		}
		if got, want := reg.Counter("collector.reports").Value(), int64(c.Count()); got != want {
			t.Fatalf("dense collector.reports = %d, want %d", got, want)
		}
		if got, want := sreg.Counter("collector.reports").Value(), int64(sc.Count()); got != want {
			t.Fatalf("sketch collector.reports = %d, want %d", got, want)
		}
	}
}
