package sketch

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// The sketch must satisfy the scheme interface.
var _ rr.Scheme = (*CMSScheme)(nil)

func testScheme(t *testing.T, domain, hashes, hashRange int, epsilon float64) *CMSScheme {
	t.Helper()
	s, err := NewKRR(domain, hashes, hashRange, epsilon, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// zipfRecords draws records from a Zipf(1) distribution over the domain.
func zipfRecords(domain, total int, seed uint64) ([]int, []float64) {
	freq := make([]float64, domain)
	var norm float64
	for x := range freq {
		freq[x] = 1 / float64(x+1)
		norm += freq[x]
	}
	cum := make([]float64, domain)
	var acc float64
	for x := range freq {
		freq[x] /= norm
		acc += freq[x]
		cum[x] = acc
	}
	r := randx.New(seed)
	recs := make([]int, total)
	for i := range recs {
		u := r.Float64()
		// Binary search the CDF.
		lo, hi := 0, domain-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		recs[i] = lo
	}
	return recs, freq
}

func TestCMSParams(t *testing.T) {
	s := testScheme(t, 100000, 8, 64, 4)
	if s.Kind() != Kind {
		t.Fatalf("Kind = %q, want %q", s.Kind(), Kind)
	}
	if s.Domain() != 100000 || s.Hashes() != 8 || s.HashRange() != 64 {
		t.Fatalf("params = (%d, %d, %d)", s.Domain(), s.Hashes(), s.HashRange())
	}
	if got, want := s.ReportSpace(), 8*64; got != want {
		t.Fatalf("ReportSpace = %d, want %d", got, want)
	}
}

func TestCMSRejectsBadParams(t *testing.T) {
	inner, err := rr.Warner(8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                      string
		domain, hashes, hashRange int
	}{
		{"zero domain", 0, 4, 8},
		{"negative domain", -1, 4, 8},
		{"zero hashes", 100, 0, 8},
		{"absurd hashes", 100, maxHashes + 1, 8},
		{"hash range 1", 100, 4, 1},
		{"inner size mismatch", 100, 4, 16},
	}
	for _, tc := range cases {
		if _, err := New(tc.domain, tc.hashes, tc.hashRange, inner, 1); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: err = %v, want ErrBadParams", tc.name, err)
		}
	}
	if _, err := New(100, 4, 8, nil, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil inner: err = %v, want ErrBadParams", err)
	}
	// A singular inner matrix has no inversion estimator.
	if _, err := New(100, 4, 8, rr.TotallyRandom(8), 1); !errors.Is(err, rr.ErrSingular) {
		t.Errorf("singular inner: err = %v, want rr.ErrSingular", err)
	}
	if _, err := NewKRR(100, 4, 8, 0, 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("epsilon 0: err = %v, want ErrBadParams", err)
	}
	if _, err := NewKRR(100, 4, 8, math.NaN(), 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("epsilon NaN: err = %v, want ErrBadParams", err)
	}
}

func TestCMSHashDeterministicInRange(t *testing.T) {
	s := testScheme(t, 1<<20, 16, 128, 4)
	s2 := testScheme(t, 1<<20, 16, 128, 4)
	for j := 0; j < s.Hashes(); j++ {
		for _, x := range []int{0, 1, 12345, 1<<20 - 1} {
			h := s.Hash(j, x)
			if h < 0 || h >= s.HashRange() {
				t.Fatalf("Hash(%d, %d) = %d out of range", j, x, h)
			}
			if h2 := s2.Hash(j, x); h2 != h {
				t.Fatalf("same seed, different hash: %d vs %d", h, h2)
			}
		}
	}
	// Different seeds give a different family.
	other, err := NewKRR(1<<20, 16, 128, 4, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for x := 0; x < 1000; x++ {
		if other.Hash(0, x) == s.Hash(0, x) {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds agree on %d/1000 hashes", same)
	}
}

func TestCMSHashRowsIndependent(t *testing.T) {
	// Distinct rows must hash the same value differently (pairwise
	// independence makes row agreement probability 1/m per value).
	s := testScheme(t, 1<<18, 8, 256, 4)
	same := 0
	for x := 0; x < 1000; x++ {
		if s.Hash(0, x) == s.Hash(1, x) {
			same++
		}
	}
	if same > 30 { // E = 1000/256 ≈ 4
		t.Fatalf("rows 0 and 1 agree on %d/1000 hashes", same)
	}
}

func TestCMSReportEncoding(t *testing.T) {
	s := testScheme(t, 1000, 5, 32, 4)
	for j := 0; j < 5; j++ {
		for _, cell := range []int{0, 7, 31} {
			rep := s.Report(j, cell)
			if rep < 0 || rep >= s.ReportSpace() {
				t.Fatalf("Report(%d, %d) = %d out of report space", j, cell, rep)
			}
			gj, gc := s.RowCell(rep)
			if gj != j || gc != cell {
				t.Fatalf("RowCell(Report(%d, %d)) = (%d, %d)", j, cell, gj, gc)
			}
		}
	}
}

func TestCMSDisguiseValueInReportSpace(t *testing.T) {
	s := testScheme(t, 50000, 8, 64, 4)
	rng := randx.New(5)
	rows := make([]int, s.Hashes())
	for i := 0; i < 5000; i++ {
		rep, err := s.DisguiseValue(i%50000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rep < 0 || rep >= s.ReportSpace() {
			t.Fatalf("report %d out of space %d", rep, s.ReportSpace())
		}
		j, _ := s.RowCell(rep)
		rows[j]++
	}
	// Hash rows are chosen uniformly: each of the 8 rows expects 625 ± noise.
	for j, c := range rows {
		if c < 450 || c > 800 {
			t.Fatalf("row %d got %d of 5000 reports, want ≈ 625", j, c)
		}
	}
	if _, err := s.DisguiseValue(-1, rng); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("negative value err = %v, want rr.ErrShape", err)
	}
	if _, err := s.DisguiseValue(50000, rng); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("out-of-domain value err = %v, want rr.ErrShape", err)
	}
}

func TestCMSDisguiseBatchDeterministicAcrossWorkers(t *testing.T) {
	s := testScheme(t, 1<<16, 8, 64, 4)
	recs, _ := zipfRecords(1<<16, 3*8192+77, 9)
	want := make([]int, len(recs))
	if err := s.DisguiseBatchInto(want, recs, 21, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(recs))
	for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		if err := s.DisguiseBatchInto(got, recs, 21, w); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: record %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
	// Error semantics match the dense batch: first bad record named.
	bad := append([]int(nil), recs...)
	bad[100] = -5
	if err := s.DisguiseBatchInto(got, bad, 21, 4); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("bad record err = %v, want rr.ErrShape", err)
	}
	if err := s.DisguiseBatchInto(make([]int, 3), recs, 21, 1); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("length mismatch err = %v, want rr.ErrShape", err)
	}
}

// aggregate disguises records and tallies the k×m count grid.
func aggregate(t *testing.T, s *CMSScheme, recs []int, seed uint64) []int {
	t.Helper()
	reports := make([]int, len(recs))
	if err := s.DisguiseBatchInto(reports, recs, seed, 0); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, s.ReportSpace())
	for _, rep := range reports {
		counts[rep]++
	}
	return counts
}

func TestCMSEstimateRecoversDistribution(t *testing.T) {
	// A domain far larger than the hash range: the sketch must still rank
	// heavy categories correctly and estimate their mass closely.
	const domain = 5000
	s := testScheme(t, domain, 16, 256, 5)
	recs, freq := zipfRecords(domain, 400000, 3)
	counts := aggregate(t, s, recs, 77)
	top := []int{0, 1, 2, 3, 4, 5}
	ests, bounds, err := s.EstimateWithBound(counts, top, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range top {
		if math.IsNaN(ests[i]) || math.IsInf(ests[i], 0) {
			t.Fatalf("category %d estimate %v", x, ests[i])
		}
		if bounds[i] <= 0 {
			t.Fatalf("category %d bound %v, want > 0", x, bounds[i])
		}
		if diff := math.Abs(ests[i] - freq[x]); diff > bounds[i] {
			t.Errorf("category %d: estimate %.4f, true %.4f, |diff| %.4f > bound %.4f",
				x, ests[i], freq[x], diff, bounds[i])
		}
	}
}

func TestCMSEstimateFullDomainSumsToOne(t *testing.T) {
	const domain = 2000
	s := testScheme(t, domain, 16, 256, 5)
	recs, _ := zipfRecords(domain, 200000, 11)
	counts := aggregate(t, s, recs, 5)
	ests, err := s.EstimateFrom(counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != domain {
		t.Fatalf("full-domain estimate has %d entries, want %d", len(ests), domain)
	}
	var sum float64
	for _, e := range ests {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("estimate %v", e)
		}
		sum += e
	}
	if math.Abs(sum-1) > 0.2 {
		t.Fatalf("full-domain estimates sum to %.4f, want ≈ 1", sum)
	}
}

func TestCMSEstimateErrors(t *testing.T) {
	s := testScheme(t, 1000, 4, 16, 4)
	if _, err := s.EstimateFrom(make([]int, 3), nil); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("short counts err = %v, want rr.ErrShape", err)
	}
	if _, err := s.EstimateFrom(make([]int, s.ReportSpace()), nil); !errors.Is(err, rr.ErrEmptyData) {
		t.Fatalf("zero counts err = %v, want rr.ErrEmptyData", err)
	}
	counts := make([]int, s.ReportSpace())
	counts[0] = -1
	counts[1] = 2
	if _, err := s.EstimateFrom(counts, nil); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("negative count err = %v, want rr.ErrShape", err)
	}
	counts[0] = 1
	if _, err := s.EstimateFrom(counts, []int{1000}); !errors.Is(err, rr.ErrShape) {
		t.Fatalf("out-of-domain category err = %v, want rr.ErrShape", err)
	}
}

func TestCMSEstimateSkipsEmptyRows(t *testing.T) {
	// Reports concentrated in a single hash row must not divide by the other
	// rows' zero totals.
	s := testScheme(t, 100, 4, 8, 4)
	counts := make([]int, s.ReportSpace())
	for cell := 0; cell < s.HashRange(); cell++ {
		counts[s.Report(2, cell)] = 100
	}
	ests, err := s.EstimateFrom(counts, []int{0, 5, 99})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ests {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("estimate[%d] = %v with empty rows", i, e)
		}
	}
}

func TestCMSSchemeEnvelopeRoundTrip(t *testing.T) {
	s := testScheme(t, 123456, 8, 64, 3)
	data, err := rr.MarshalScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rr.UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := got.(*CMSScheme)
	if !ok {
		t.Fatalf("decoded scheme is %T, want *CMSScheme", got)
	}
	if back.Domain() != s.Domain() || back.Hashes() != s.Hashes() ||
		back.HashRange() != s.HashRange() || back.HashSeed() != s.HashSeed() {
		t.Fatal("round-tripped parameters differ")
	}
	if !back.Inner().Equal(s.Inner(), 1e-15) {
		t.Fatal("round-tripped inner matrix differs")
	}
	// The revived scheme must produce the identical hash family.
	for j := 0; j < s.Hashes(); j++ {
		for _, x := range []int{0, 17, 123455} {
			if back.Hash(j, x) != s.Hash(j, x) {
				t.Fatalf("hash family changed over the wire at (%d, %d)", j, x)
			}
		}
	}
	v1, err := rr.SchemeVersion(s)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := rr.SchemeVersion(back)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("round trip changed scheme version: %q vs %q", v1, v2)
	}
}

func TestCMSWireSizeIndependentOfDomain(t *testing.T) {
	small := testScheme(t, 1000, 8, 64, 4)
	huge := testScheme(t, 100000000, 8, 64, 4)
	ds, err := rr.MarshalScheme(small)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := rr.MarshalScheme(huge)
	if err != nil {
		t.Fatal(err)
	}
	// The domain travels as one integer: 10⁵× the domain must cost a handful
	// of digits, not a larger matrix.
	if delta := len(dh) - len(ds); delta > 16 {
		t.Fatalf("wire size grew by %d bytes for a 10⁵× domain", delta)
	}
}
