package collector

import (
	"io"
	"sync"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/randx"
)

// TestShardedCollectorConcurrentIngestAndSummary exercises the concurrency
// claim under the race detector (ci.sh runs this package with -race and
// -cpu 1,4): ingesting goroutines (single reports and batches) race against
// query goroutines hammering Snapshot, MarginOfError, ReportsForMargin,
// Count, the JSON snapshot and Merge, with full instrumentation attached so
// the recorder and registry paths are raced too, and a scraper rendering the
// registry (whose report series read the shards) as JSON and Prometheus
// text throughout. Consistent queries must always see a whole number of
// reports and a valid distribution.
func TestShardedCollectorConcurrentIngestAndSummary(t *testing.T) {
	m := mustWarner(t, 5, 0.75)
	s := New(m, 8)
	reg := obs.NewRegistry()
	s.Instrument(obs.NewJSONL(io.Discard), reg)

	const (
		ingesters = 4
		batchers  = 2
		queriers  = 3
		each      = 2000
		batchSize = 50
	)
	var writers, wg sync.WaitGroup
	for w := 0; w < ingesters; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := randx.New(seed)
			for i := 0; i < each; i++ {
				if err := s.Ingest(rng.Intn(5)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w + 1))
	}
	for w := 0; w < batchers; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := randx.New(seed)
			for i := 0; i < each/batchSize; i++ {
				batch := make([]int, batchSize)
				for j := range batch {
					batch[j] = rng.Intn(5)
				}
				if err := s.IngestBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(100 + w))
	}
	done := make(chan struct{})
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := New(m, 2)
			for {
				select {
				case <-done:
					return
				default:
				}
				if sum, err := s.Snapshot(1.96); err == nil {
					var total float64
					for _, v := range sum.Estimate {
						total += v
					}
					if total < 0.999 || total > 1.001 {
						t.Errorf("estimate sums to %v at %d reports", total, sum.Reports)
						return
					}
				} else if err != ErrNoReports {
					t.Error(err)
					return
				}
				if _, err := s.MarginOfError(1.96); err != nil && err != ErrNoReports {
					t.Error(err)
					return
				}
				if _, err := s.ReportsForMargin(0.01, 1.96); err != nil && err != ErrNoReports {
					t.Error(err)
					return
				}
				if _, err := s.MarshalJSON(); err != nil {
					t.Error(err)
					return
				}
				if err := sink.Merge(s); err != nil {
					t.Error(err)
					return
				}
				s.Count()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = reg.String()
		}
	}()

	want := ingesters*each + batchers*(each/batchSize)*batchSize
	writers.Wait()
	close(done)
	wg.Wait()

	if got := s.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if got := reg.Counter("collector.reports").Value(); got != int64(want) {
		t.Fatalf("collector.reports = %d, want %d", got, want)
	}
	if got := reg.Counter("collector.batches").Value(); got != int64(batchers*(each/batchSize)) {
		t.Fatalf("collector.batches = %d", got)
	}
	var perCat int64
	for k := 0; k < 5; k++ {
		perCat += reg.Counter("collector.reports.cat" + string(rune('0'+k))).Value()
	}
	if perCat != int64(want) {
		t.Fatalf("per-category counters sum to %d, want %d", perCat, want)
	}
}
