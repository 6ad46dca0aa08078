package mining_test

import (
	"math"
	"testing"

	"optrr/internal/collector"
	"optrr/internal/mining"
	"optrr/internal/randx"
	"optrr/internal/sketch"
)

// TestHeavyHittersOverSketch is the end-to-end mining story: Zipf records
// over a domain far larger than any dense matrix, disguised through the
// count-mean sketch, aggregated in the sketch collector, and the frequent
// categories recovered by the chunked scan.
func TestHeavyHittersOverSketch(t *testing.T) {
	const domain = 50000
	s, err := sketch.NewKRR(domain, 16, 256, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	records := make([]int, 150000)
	for i := range records {
		if rng.Intn(2) == 0 {
			records[i] = rng.Intn(4) // 50% of mass on 4 heavy categories
		} else {
			records[i] = rng.Intn(domain)
		}
	}
	reports := make([]int, len(records))
	if err := s.DisguiseBatchInto(reports, records, 9, 0); err != nil {
		t.Fatal(err)
	}
	col := collector.New(s, 4)
	if err := col.IngestBatch(reports); err != nil {
		t.Fatal(err)
	}
	hits, err := mining.TopK(col, 4)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, h := range hits {
		found[h.Category] = true
		if math.Abs(h.Estimate-0.125) > 0.05 {
			t.Errorf("category %d estimate %.4f, want ≈ 0.125", h.Category, h.Estimate)
		}
	}
	for x := 0; x < 4; x++ {
		if !found[x] {
			t.Fatalf("heavy category %d missing from top-4 %v", x, hits)
		}
	}
}
