package collector

import (
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// goldenDense is a non-symmetric 5×5 disguise matrix, so the pinned
// numbers exercise a general LU factorization rather than Warner's
// closed-form structure.
func goldenDense(t *testing.T) *rr.Matrix {
	t.Helper()
	m, err := rr.FromColumns([][]float64{
		{0.60, 0.10, 0.10, 0.10, 0.10},
		{0.05, 0.70, 0.10, 0.05, 0.10},
		{0.10, 0.05, 0.65, 0.15, 0.05},
		{0.15, 0.10, 0.05, 0.55, 0.15},
		{0.05, 0.15, 0.10, 0.10, 0.60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenDenseReports disguises a fixed 20000-record campaign through m.
func goldenDenseReports(t *testing.T, m *rr.Matrix) []int {
	t.Helper()
	rng := randx.New(2026)
	alias, err := randx.NewAlias([]float64{0.4, 0.25, 0.2, 0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	originals := make([]int, 20000)
	for i := range originals {
		originals[i] = alias.Draw(rng)
	}
	reports, err := m.Disguise(originals, rng)
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (must match bit for bit)", what, i, got[i], want[i])
		}
	}
}

// TestGoldenDenseCampaign pins the dense collector's numbers bit for bit:
// the raw inversion estimate, the Snapshot's clipped estimate and
// Theorem-6 half-widths, and the margin projection, over a fixed campaign
// landed as single reports and batches across four shards.
func TestGoldenDenseCampaign(t *testing.T) {
	m := goldenDense(t)
	reports := goldenDenseReports(t, m)
	c := New(m, 4)
	for _, r := range reports[:5000] {
		if err := c.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 5000; lo < len(reports); lo += 1500 {
		hi := min(lo+1500, len(reports))
		if err := c.IngestBatch(reports[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	wantCounts := []int{5761, 4904, 4124, 2824, 2387}
	for k, want := range wantCounts {
		if got := c.Counts()[k]; got != want {
			t.Fatalf("counts[%d] = %d, want %d", k, got, want)
		}
	}

	est, err := c.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "estimate", est, []float64{0.39674649415692825, 0.2547328881469115, 0.20194732888146913, 0.09742061769616028, 0.04915267111853089})

	sum, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reports != 20000 || sum.Z != 1.96 {
		t.Fatalf("snapshot header: reports %d z %v", sum.Reports, sum.Z)
	}
	sameFloats(t, "snapshot estimate", sum.Estimate, []float64{0.39674649415692825, 0.2547328881469115, 0.20194732888146913, 0.09742061769616028, 0.04915267111853089})
	sameFloats(t, "snapshot half-width", sum.HalfWidth, []float64{0.01236682370428763, 0.009924035730762091, 0.009916019690853988, 0.010747538597925255, 0.00909683706301225})

	need, err := c.ReportsForMargin(0.005, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if need != 122351 {
		t.Fatalf("ReportsForMargin = %d, want 122351", need)
	}
}

// TestGoldenSketchCampaign pins the count-mean-sketch collector's numbers
// bit for bit: point estimates, the scheme's EstimateWithBound half-widths
// over the collector's fold, and the heavy-hitter scan.
func TestGoldenSketchCampaign(t *testing.T) {
	s := testCMS(t, 2000, 8, 32)
	reports := sketchReports(t, s, 40000, 21)
	c := New(s, 4)
	for lo := 0; lo < len(reports); lo += 3000 {
		hi := min(lo+3000, len(reports))
		if err := c.IngestBatch(reports[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	cats := []int{0, 1, 2, 3, 4, 1999}
	est, err := c.Estimate(cats...)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "estimate", est, []float64{0.16778387365943925, 0.14887599422421233, 0.16693584584423804, 0.15038359922901445, 0.13169557885698782, 0.015138866923221578})

	_, half, err := s.EstimateWithBound(c.Counts(), cats, 1.96, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "half-width", half, []float64{0.1309681948395803, 0.13081504705887387, 0.1309617992262427, 0.13083196940743855, 0.1306726681636655, 0.12874891120331192})

	hits, err := c.HeavyHitters(0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := []struct {
		cat int
		est float64
	}{{0, 0.16778387365943925}, {2, 0.16693584584423804}, {3, 0.15038359922901445}}
	if len(hits) != len(wantHits) {
		t.Fatalf("heavy hitters %v, want %v", hits, wantHits)
	}
	for i, w := range wantHits {
		if hits[i].Category != w.cat || hits[i].Estimate != w.est {
			t.Fatalf("heavy hitter %d = %+v, want %+v", i, hits[i], w)
		}
	}
	all, err := c.HeavyHitters(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("unlimited scan found %d heavy hitters, want 5", len(all))
	}
	// Categories 1351 and 1779 tie exactly at the tail of a lower scan: the
	// tie breaks by category index.
	low, err := c.HeavyHitters(0.0549, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(low) != 20 {
		t.Fatalf("scan at 0.0549 found %d heavy hitters, want 20", len(low))
	}
	for i, cat := range []int{1351, 1779} {
		if h := low[18+i]; h.Category != cat || h.Estimate != 0.05496476580007839 {
			t.Fatalf("tied heavy hitter %d = %+v, want category %d at 0.05496476580007839", 18+i, h, cat)
		}
	}
}
