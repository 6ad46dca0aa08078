package collector

import (
	"errors"
	"math"
	"sync"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/sketch"
)

func testCMS(t testing.TB, domain, hashes, hashRange int) *sketch.CMSScheme {
	t.Helper()
	s, err := sketch.NewKRR(domain, hashes, hashRange, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sketchReports disguises a skewed record stream into encoded reports.
func sketchReports(t testing.TB, s *sketch.CMSScheme, total int, seed uint64) []int {
	t.Helper()
	rng := randx.New(seed)
	records := make([]int, total)
	for i := range records {
		if rng.Intn(4) != 0 {
			records[i] = rng.Intn(5) // 75% of mass on 5 heavy categories
		} else {
			records[i] = rng.Intn(s.Domain())
		}
	}
	reports := make([]int, total)
	if err := s.DisguiseBatchInto(reports, records, seed, 0); err != nil {
		t.Fatal(err)
	}
	return reports
}

func TestSketchCollectorIngestAndCount(t *testing.T) {
	s := testCMS(t, 10000, 8, 64)
	c := New(s, 4)
	if c.Categories() != 10000 || c.ReportSpace() != 8*64 {
		t.Fatalf("Categories/ReportSpace = %d/%d", c.Categories(), c.ReportSpace())
	}
	reports := sketchReports(t, s, 5000, 1)
	for _, r := range reports[:2500] {
		if err := c.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.IngestBatch(reports[2500:]); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 5000 {
		t.Fatalf("Count = %d, want 5000", got)
	}
	counts := c.Counts()
	if len(counts) != c.ReportSpace() {
		t.Fatalf("Counts has %d entries, want %d", len(counts), c.ReportSpace())
	}
	sum := 0
	for _, v := range counts {
		sum += v
	}
	if sum != 5000 {
		t.Fatalf("counts sum to %d, want 5000", sum)
	}
}

func TestSketchCollectorRejectsBadReports(t *testing.T) {
	c := New(testCMS(t, 1000, 4, 16), 2)
	if err := c.Ingest(-1); !errors.Is(err, ErrBadReport) {
		t.Fatalf("Ingest(-1) err = %v, want ErrBadReport", err)
	}
	if err := c.Ingest(c.ReportSpace()); !errors.Is(err, ErrBadReport) {
		t.Fatalf("Ingest(space) err = %v, want ErrBadReport", err)
	}
	if err := c.IngestBatch([]int{0, 1, c.ReportSpace()}); !errors.Is(err, ErrBadReport) {
		t.Fatalf("IngestBatch err = %v, want ErrBadReport", err)
	}
	if c.Count() != 0 {
		t.Fatalf("failed batch mutated state: count %d", c.Count())
	}
}

func TestSketchCollectorEmptyQueries(t *testing.T) {
	c := New(testCMS(t, 1000, 4, 16), 2)
	if _, err := c.Estimate(0); !errors.Is(err, ErrNoReports) {
		t.Fatalf("Estimate on empty err = %v, want ErrNoReports", err)
	}
	if _, err := c.HeavyHitters(0.01, 10); !errors.Is(err, ErrNoReports) {
		t.Fatalf("HeavyHitters on empty err = %v, want ErrNoReports", err)
	}
}

func TestSketchCollectorEstimateAndHeavyHitters(t *testing.T) {
	s := testCMS(t, 10000, 16, 128)
	c := New(s, 4)
	if err := c.IngestBatch(sketchReports(t, s, 200000, 7)); err != nil {
		t.Fatal(err)
	}
	// The 5 heavy categories carry ~15% each; everything else ~0.25%.
	ests, err := c.Estimate(0, 1, 2, 3, 4, 9999)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(ests[i]-0.15) > 0.05 {
			t.Errorf("heavy category %d estimate %.4f, want ≈ 0.15", i, ests[i])
		}
	}
	if math.Abs(ests[5]) > 0.03 {
		t.Errorf("light category estimate %.4f, want ≈ 0", ests[5])
	}
	hits, err := c.HeavyHitters(0.08, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, h := range hits {
		found[h.Category] = true
	}
	for x := 0; x < 5; x++ {
		if !found[x] {
			t.Errorf("heavy category %d not in heavy hitters %v", x, hits)
		}
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Estimate > hits[i-1].Estimate {
			t.Fatalf("heavy hitters not sorted: %v", hits)
		}
	}
	top, err := c.HeavyHitters(0.08, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("limit 2 returned %d hits", len(top))
	}
}

func TestSketchCollectorMerge(t *testing.T) {
	s := testCMS(t, 1000, 4, 16)
	a, b := New(s, 2), New(s, 2)
	ra := sketchReports(t, s, 3000, 1)
	rb := sketchReports(t, s, 2000, 2)
	if err := a.IngestBatch(ra); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestBatch(rb); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != 5000 {
		t.Fatalf("merged count %d, want 5000", got)
	}
	// Different scheme (different hash seed) must be refused.
	other, err := sketch.NewKRR(1000, 4, 16, 5, 43)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(New(other, 2)); err == nil {
		t.Fatal("merge across different schemes accepted")
	}
}

func TestSketchCollectorSnapshotRoundTrip(t *testing.T) {
	s := testCMS(t, 10000, 8, 64)
	c := New(s, 4)
	if err := c.IngestBatch(sketchReports(t, s, 50000, 3)); err != nil {
		t.Fatal(err)
	}
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Restore(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != c.Count() {
		t.Fatalf("restored count %d, want %d", back.Count(), c.Count())
	}
	want, err := c.Estimate(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Estimate(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored estimate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSketchCollectorRestoreRejectsCorrupt(t *testing.T) {
	s := testCMS(t, 1000, 4, 16)
	c := New(s, 2)
	if err := c.IngestBatch(sketchReports(t, s, 100, 1)); err != nil {
		t.Fatal(err)
	}
	good, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not json":      []byte("{"),
		"no scheme":     []byte(`{"counts":[1,2]}`),
		"bad scheme":    []byte(`{"scheme":{"kind":"nope","scheme":{}},"counts":[]}`),
		"short counts":  []byte(`{"scheme":` + string(schemeEnv(t, s)) + `,"counts":[1,2,3]}`),
		"negative":      corrupt(t, good, `"counts":[`, `"counts":[-1,`),
		"total mangled": corrupt(t, good, `"total":100`, `"total":101`),
	}
	for name, data := range cases {
		if _, err := Restore(data, 2); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

func schemeEnv(t *testing.T, s rr.Scheme) []byte {
	t.Helper()
	env, err := rr.MarshalScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func corrupt(t *testing.T, data []byte, old, new string) []byte {
	t.Helper()
	mangled := []byte(replaceFirst(string(data), old, new))
	if string(mangled) == string(data) {
		t.Fatalf("corruption %q not applied", new)
	}
	return mangled
}

func replaceFirst(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// TestSketchCollectorConcurrentIngest drives single reports, batches, and
// merges from many goroutines, with point queries and heavy-hitter scans
// racing them; the total and the per-query consistency must hold under
// -race at any -cpu. After each of its own batches lands, a worker's point
// query must count at least the reports that worker has landed, and a scan
// beside the ingest must succeed with finite estimates.
func TestSketchCollectorConcurrentIngest(t *testing.T) {
	s := testCMS(t, 10000, 8, 64)
	c := New(s, 8)
	c.Instrument(nil, obs.NewRegistry())
	const (
		workers    = 8
		perWorker  = 2000
		batchSize  = 100
		mergeCount = 500
		scans      = 3
	)
	side := New(s, 2)
	if err := side.IngestBatch(sketchReports(t, s, mergeCount, 99)); err != nil {
		t.Fatal(err)
	}
	cats := []int{0, 1, 4, 9999}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reports := sketchReports(t, s, perWorker, uint64(w+1))
			for i := 0; i < perWorker; i += 2 * batchSize {
				for _, r := range reports[i : i+batchSize] {
					if err := c.Ingest(r); err != nil {
						t.Error(err)
						return
					}
				}
				if err := c.IngestBatch(reports[i+batchSize : i+2*batchSize]); err != nil {
					t.Error(err)
					return
				}
				sum, err := c.Snapshot(3.29, cats...)
				if err != nil {
					t.Error(err)
					return
				}
				if landed := i + 2*batchSize; sum.Reports < landed {
					t.Errorf("worker %d landed %d reports, its query counts %d", w, landed, sum.Reports)
					return
				}
				if len(sum.Estimate) != len(cats) || len(sum.HalfWidth) != len(cats) {
					t.Errorf("point query returned %d estimates, %d half-widths", len(sum.Estimate), len(sum.HalfWidth))
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := c.Merge(side); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < scans; i++ {
			hits, err := c.HeavyHitters(0, 5)
			if errors.Is(err, ErrNoReports) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			for _, h := range hits {
				if math.IsNaN(h.Estimate) || math.IsInf(h.Estimate, 0) {
					t.Errorf("heavy hitter %+v", h)
					return
				}
			}
		}
	}()
	wg.Wait()
	if got, want := c.Count(), workers*perWorker+mergeCount; got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
}

// TestSketchCollectorShardedMatchesSerial: the striped fold must equal a
// serial tally of the same reports.
func TestSketchCollectorShardedMatchesSerial(t *testing.T) {
	s := testCMS(t, 5000, 8, 32)
	reports := sketchReports(t, s, 30000, 4)
	c := New(s, 8)
	serial := make([]int, s.ReportSpace())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		lo := w * 5000
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			for _, r := range chunk {
				if err := c.Ingest(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(reports[lo : lo+5000])
	}
	for _, r := range reports {
		serial[r]++
	}
	wg.Wait()
	got := c.Counts()
	for k := range serial {
		if got[k] != serial[k] {
			t.Fatalf("cell %d: sharded %d, serial %d", k, got[k], serial[k])
		}
	}
}

func BenchmarkSketchIngest(b *testing.B) {
	s := testCMS(b, 100000, 16, 256)
	c := New(s, 0)
	reports := sketchReports(b, s, 8192, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := c.Ingest(reports[i&8191]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkHeavyHitters(b *testing.B) {
	s := testCMS(b, 100000, 16, 256)
	c := New(s, 0)
	if err := c.IngestBatch(sketchReports(b, s, 100000, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HeavyHitters(0.05, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchPointQuery is the read /v1/estimate?categories= serves:
// an 8-category Snapshot with half-widths over BenchmarkHeavyHitters'
// deployment.
func BenchmarkSketchPointQuery(b *testing.B) {
	s := testCMS(b, 100000, 16, 256)
	c := New(s, 0)
	if err := c.IngestBatch(sketchReports(b, s, 100000, 1)); err != nil {
		b.Fatal(err)
	}
	cats := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(3.29, cats...); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSketchCollectorSnapshotBounds: a sketch Snapshot states the scheme's
// own EstimateWithBound half-widths over the same fold, carries no dense
// disguised distribution, and margin projection is refused.
func TestSketchCollectorSnapshotBounds(t *testing.T) {
	s := testCMS(t, 2000, 8, 32)
	c := New(s, 4)
	if err := c.IngestBatch(sketchReports(t, s, 20000, 5)); err != nil {
		t.Fatal(err)
	}
	cats := []int{0, 3, 1999}
	sum, err := c.Snapshot(2.58, cats...)
	if err != nil {
		t.Fatal(err)
	}
	ests, half, err := s.EstimateWithBound(c.Counts(), cats, 2.58, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cats {
		if sum.Estimate[i] != ests[i] || sum.HalfWidth[i] != half[i] {
			t.Fatalf("category %d: snapshot %v ± %v, scheme %v ± %v",
				cats[i], sum.Estimate[i], sum.HalfWidth[i], ests[i], half[i])
		}
	}
	if sum.Reports != 20000 || sum.Disguised != nil {
		t.Fatalf("snapshot header: reports %d, disguised %v", sum.Reports, sum.Disguised)
	}
	if _, err := c.ReportsForMargin(0.01, 1.96); err == nil {
		t.Fatal("margin projection accepted for a sketch")
	}
}
