package collector

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

func mustWarner(t testing.TB, n int, p float64) *rr.Matrix {
	t.Helper()
	m, err := rr.Warner(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIngestValidation(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 1)
	if err := c.Ingest(3); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
	if err := c.Ingest(-1); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
	if err := c.Ingest(2); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestIngestBatchAtomic(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 1)
	if err := c.IngestBatch([]int{0, 1, 7}); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
	if c.Count() != 0 {
		t.Fatal("failed batch left partial state")
	}
	if err := c.IngestBatch([]int{0, 1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestIngestBatchMatchesIngest: a batch lands through a per-cell tally, one
// atomic add per distinct report. For a dense scheme and a sketch, batches
// shorter than, as long as and longer than the report space (1, width−1,
// width and width+1 reports, with repeats), each followed by one rejected
// part-way, must leave the same counts and report series as per-report
// Ingest of the accepted reports: no tally cell may leak into a later batch.
func TestIngestBatchMatchesIngest(t *testing.T) {
	for _, scheme := range []rr.Scheme{mustWarner(t, 5, 0.7), testCMS(t, 100, 2, 8)} {
		width := scheme.ReportSpace()
		batched, single := New(scheme, 2), New(scheme, 1)
		reg := obs.NewRegistry()
		batched.Instrument(nil, reg)
		rng := randx.New(3)
		for _, size := range []int{1, width - 1, width, width + 1} {
			batch := make([]int, size)
			for i := range batch {
				batch[i] = rng.Intn(width)
			}
			if err := batched.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, r := range batch {
				if err := single.Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.IngestBatch(append(batch, width)); !errors.Is(err, ErrBadReport) {
				t.Fatalf("%s: batch ending out of range: err = %v, want ErrBadReport", scheme.Kind(), err)
			}
		}
		got, want := batched.Counts(), single.Counts()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: counts[%d] = %d after batches, %d after single reports", scheme.Kind(), k, got[k], want[k])
			}
		}
		if got := reg.Counter("collector.reports").Value(); got != int64(single.Count()) {
			t.Fatalf("%s: collector.reports = %d, want %d", scheme.Kind(), got, single.Count())
		}
	}
}

func TestEstimateBeforeIngestion(t *testing.T) {
	c := New(mustWarner(t, 3, 0.8), 1)
	if _, err := c.Estimate(); !errors.Is(err, ErrNoReports) {
		t.Fatalf("err = %v, want ErrNoReports", err)
	}
	if _, err := c.Snapshot(1.96); !errors.Is(err, ErrNoReports) {
		t.Fatalf("snapshot err = %v, want ErrNoReports", err)
	}
}

func TestSimulateRecoversPrior(t *testing.T) {
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	m := mustWarner(t, 4, 0.75)
	c, err := Simulate(m, prior, 60000, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	est := sum.Estimate
	for k := range prior {
		if math.Abs(est[k]-prior[k]) > 0.02 {
			t.Errorf("category %d: %v vs %v", k, est[k], prior[k])
		}
	}
	if c.Count() != 60000 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestSimulateValidation(t *testing.T) {
	m := mustWarner(t, 3, 0.8)
	if _, err := Simulate(m, []float64{0.5, 0.3, 0.2}, 0, randx.New(1)); err == nil {
		t.Fatal("records = 0 accepted")
	}
	if _, err := Simulate(m, []float64{0, 0, 0}, 10, randx.New(1)); err == nil {
		t.Fatal("zero prior accepted")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	prior := []float64{0.5, 0.3, 0.2}
	m := mustWarner(t, 3, 0.8)
	c, err := Simulate(m, prior, 10000, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if s.Reports != 10000 || s.Z != 1.96 {
		t.Fatalf("snapshot meta: %+v", s)
	}
	var sumD, sumE float64
	for k := range s.Disguised {
		sumD += s.Disguised[k]
		sumE += s.Estimate[k]
		if s.HalfWidth[k] <= 0 {
			t.Fatalf("half-width %d not positive: %v", k, s.HalfWidth[k])
		}
	}
	if math.Abs(sumD-1) > 1e-9 || math.Abs(sumE-1) > 1e-9 {
		t.Fatalf("distributions do not sum to 1: %v, %v", sumD, sumE)
	}
	if _, err := c.Snapshot(0); err == nil {
		t.Fatal("z = 0 accepted")
	}
}

// TestMarginShrinksWithData: the margin of error must scale down roughly as
// 1/sqrt(N).
func TestMarginShrinksWithData(t *testing.T) {
	prior := []float64{0.5, 0.3, 0.2}
	m := mustWarner(t, 3, 0.8)
	rng := randx.New(9)
	small, err := Simulate(m, prior, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Simulate(m, prior, 32000, rng)
	if err != nil {
		t.Fatal(err)
	}
	eSmall, err := small.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	eLarge, err := large.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	ratio := eSmall / eLarge
	// sqrt(32000/2000) = 4.
	if ratio < 3 || ratio > 5 {
		t.Fatalf("margin ratio = %v, want approx 4", ratio)
	}
}

func TestReportsForMargin(t *testing.T) {
	prior := []float64{0.5, 0.3, 0.2}
	m := mustWarner(t, 3, 0.8)
	c, err := Simulate(m, prior, 2000, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	// Already satisfied: returns current count.
	n, err := c.ReportsForMargin(cur*2, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("satisfied margin: n = %d, want 2000", n)
	}
	// Halving the margin needs ~4x the data.
	n, err = c.ReportsForMargin(cur/2, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if n < 7000 || n > 9000 {
		t.Fatalf("half margin: n = %d, want approx 8000", n)
	}
	if _, err := c.ReportsForMargin(0, 1.96); err == nil {
		t.Fatal("margin = 0 accepted")
	}
}

// TestReportsForMarginPrediction: collecting the predicted number of reports
// actually achieves the target margin.
func TestReportsForMarginPrediction(t *testing.T) {
	prior := []float64{0.4, 0.35, 0.25}
	m := mustWarner(t, 3, 0.8)
	rng := randx.New(13)
	pilot, err := Simulate(m, prior, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.02
	need, err := pilot.ReportsForMargin(target, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(m, prior, need, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := full.MarginOfError(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if got > target*1.15 {
		t.Fatalf("achieved margin %v, wanted <= %v (predicted %d reports)", got, target, need)
	}
}

func TestRespondentReports(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	if _, err := NewRespondent(m, 9); !errors.Is(err, ErrBadReport) {
		t.Fatal("bad respondent value accepted")
	}
	r, err := NewRespondent(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(15)
	const draws = 100000
	counts := make([]float64, 4)
	for i := 0; i < draws; i++ {
		counts[r.Report(rng)]++
	}
	for j := 0; j < 4; j++ {
		want := m.Theta(j, 2)
		got := counts[j] / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("report frequency %d: %v, want %v", j, got, want)
		}
	}
}

// TestEndToEndRespondentsToCollector wires respondents directly into a
// collector — the full deployment loop with no raw values crossing.
func TestEndToEndRespondentsToCollector(t *testing.T) {
	prior := []float64{0.6, 0.25, 0.15}
	m := mustWarner(t, 3, 0.8)
	rng := randx.New(17)
	alias, err := randx.NewAlias(prior)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m, 1)
	const population = 30000
	for i := 0; i < population; i++ {
		resp, err := NewRespondent(m, alias.Draw(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ingest(resp.Report(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.Snapshot(2.58) // ~99%
	if err != nil {
		t.Fatal(err)
	}
	for k := range prior {
		lo := s.Estimate[k] - s.HalfWidth[k]
		hi := s.Estimate[k] + s.HalfWidth[k]
		if prior[k] < lo-0.01 || prior[k] > hi+0.01 {
			t.Errorf("category %d: truth %v outside [%v, %v]", k, prior[k], lo, hi)
		}
	}
}

func BenchmarkIngest(b *testing.B) {
	c := New(mustWarner(b, 10, 0.8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ingest(i % 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	m := mustWarner(b, 4, 0.8)
	c, err := Simulate(m, prior, 10000, randx.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(1.96); err != nil {
			b.Fatal(err)
		}
	}
}
