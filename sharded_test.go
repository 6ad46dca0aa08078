package optrr_test

import (
	"encoding/json"
	"sync"
	"testing"

	"optrr"
	"optrr/internal/randx"
)

// TestShardedCollectorEndToEnd drives the root-package collector API through
// a small campaign: concurrent respondents report into a 4-shard collector,
// the collector is checkpointed to JSON mid-campaign, restored, and
// finishes identically.
func TestShardedCollectorEndToEnd(t *testing.T) {
	m, err := optrr.Warner(4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	c := optrr.NewCollector(m, 4)

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := randx.New(seed)
			resp, err := optrr.NewRespondent(m, int(seed)%4)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perWorker; i++ {
				if err := c.Ingest(resp.Report(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	if c.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", c.Count(), workers*perWorker)
	}
	sum, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range sum.Estimate {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("estimate sums to %v", total)
	}

	// Checkpoint, restore onto a different shard count, compare.
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := optrr.RestoreCollector(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sum.Estimate {
		if got.Estimate[k] != sum.Estimate[k] {
			t.Fatalf("restored estimate[%d] = %v, want %v", k, got.Estimate[k], sum.Estimate[k])
		}
	}
}
