package dataset

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"optrr/internal/par"
	"optrr/internal/randx"
)

func TestNewCategoricalValidates(t *testing.T) {
	if _, err := NewCategorical(0, nil); !errors.Is(err, ErrBadCategory) {
		t.Fatalf("n=0: err = %v, want ErrBadCategory", err)
	}
	if _, err := NewCategorical(3, []int{0, 3}); !errors.Is(err, ErrBadCategory) {
		t.Fatalf("out-of-range record: err = %v, want ErrBadCategory", err)
	}
	if _, err := NewCategorical(3, []int{0, -1}); !errors.Is(err, ErrBadCategory) {
		t.Fatalf("negative record: err = %v, want ErrBadCategory", err)
	}
	d, err := NewCategorical(3, []int{0, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Categories() != 3 || d.Len() != 4 || d.Record(3) != 1 {
		t.Fatalf("accessors wrong: %+v", d)
	}
}

func TestCountsAndDistribution(t *testing.T) {
	d, err := NewCategorical(3, []int{0, 1, 1, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := d.Counts()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 3 {
		t.Fatalf("Counts = %v", counts)
	}
	p := d.Distribution()
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("Distribution = %v, want %v", p, want)
		}
	}
}

func TestDistributionEmpty(t *testing.T) {
	d, err := NewCategorical(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Distribution()
	if p[0] != 0 || p[1] != 0 {
		t.Fatalf("empty Distribution = %v, want zeros", p)
	}
}

func TestValidateDistribution(t *testing.T) {
	cases := []struct {
		p  []float64
		ok bool
	}{
		{[]float64{0.5, 0.5}, true},
		{[]float64{1}, true},
		{[]float64{0.3, 0.3}, false},
		{[]float64{-0.1, 1.1}, false},
		{[]float64{math.NaN(), 1}, false},
		{nil, false},
	}
	for _, c := range cases {
		err := ValidateDistribution(c.p)
		if c.ok && err != nil {
			t.Errorf("ValidateDistribution(%v) = %v, want nil", c.p, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ValidateDistribution(%v) = nil, want error", c.p)
		}
	}
}

func TestNormalize(t *testing.T) {
	p, err := Normalize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("Normalize = %v", p)
	}
	if _, err := Normalize([]float64{0, 0}); !errors.Is(err, ErrBadDistribution) {
		t.Fatalf("zero weights: err = %v", err)
	}
	if _, err := Normalize([]float64{-1, 2}); !errors.Is(err, ErrBadDistribution) {
		t.Fatalf("negative weight: err = %v", err)
	}
}

func TestSampleConvergesToPrior(t *testing.T) {
	p := []float64{0.1, 0.2, 0.3, 0.4}
	r := randx.New(42)
	d, err := Sample(p, 200000, r)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Distribution()
	for i := range p {
		if math.Abs(got[i]-p[i]) > 0.01 {
			t.Errorf("category %d: frequency %v, want approx %v", i, got[i], p[i])
		}
	}
}

func TestSampleRejectsBadPrior(t *testing.T) {
	r := randx.New(1)
	if _, err := Sample([]float64{0.5, 0.6}, 10, r); !errors.Is(err, ErrBadDistribution) {
		t.Fatalf("err = %v, want ErrBadDistribution", err)
	}
}

func TestDiscretize(t *testing.T) {
	vals := []float64{0, 0.9, 1.0, 5.5, 9.99, 10, 12, -3}
	d, err := Discretize(vals, 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 5, 9, 9, 9, 0}
	for i, w := range want {
		if d.Record(i) != w {
			t.Errorf("record %d (value %v): bin %d, want %d", i, vals[i], d.Record(i), w)
		}
	}
}

func TestDiscretizeValidates(t *testing.T) {
	if _, err := Discretize(nil, 0, 0, 1); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := Discretize(nil, 3, 5, 5); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestTotalVariation(t *testing.T) {
	tv, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tv != 1 {
		t.Fatalf("TV = %v, want 1", tv)
	}
	tv, err = TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tv != 0 {
		t.Fatalf("TV = %v, want 0", tv)
	}
	if _, err := TotalVariation([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestMeanSquaredError(t *testing.T) {
	mse, err := MeanSquaredError([]float64{0.2, 0.8}, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mse-0.04) > 1e-12 {
		t.Fatalf("MSE = %v, want 0.04", mse)
	}
	if _, err := MeanSquaredError([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestMaxCategory(t *testing.T) {
	i, v := MaxCategory([]float64{0.1, 0.7, 0.2})
	if i != 1 || v != 0.7 {
		t.Fatalf("MaxCategory = (%d, %v), want (1, 0.7)", i, v)
	}
}

func TestSortedIndices(t *testing.T) {
	idx := SortedIndices([]float64{0.2, 0.5, 0.2, 0.1})
	want := []int{1, 0, 2, 3} // stable: ties keep original order
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("SortedIndices = %v, want %v", idx, want)
		}
	}
}

func TestGeneratorPriorsAreValid(t *testing.T) {
	gens := []Generator{
		DefaultNormal(10),
		NormalGenerator(3, 1),
		GammaGenerator(1, 2),
		GammaGenerator(0.5, 1),
		GammaGenerator(3, 2),
		UniformGenerator(),
		ZipfGenerator(1),
		ZipfGenerator(2),
		BimodalGenerator(),
	}
	for _, g := range gens {
		for _, n := range []int{2, 5, 10, 20} {
			p := g.Prior(n)
			if len(p) != n {
				t.Errorf("%s: prior length %d, want %d", g.Name, len(p), n)
				continue
			}
			if err := ValidateDistribution(p); err != nil {
				t.Errorf("%s (n=%d): %v", g.Name, n, err)
			}
		}
	}
}

func TestNormalPriorShape(t *testing.T) {
	p := DefaultNormal(10).Prior(10)
	// Symmetric bell: p[i] == p[9-i], peak in the middle.
	for i := 0; i < 5; i++ {
		if math.Abs(p[i]-p[9-i]) > 1e-9 {
			t.Errorf("normal prior asymmetric: p[%d]=%v, p[%d]=%v", i, p[i], 9-i, p[9-i])
		}
	}
	if p[4] <= p[0] || p[4] <= p[2] {
		t.Errorf("normal prior not peaked in the middle: %v", p)
	}
}

func TestGammaPriorShape(t *testing.T) {
	// Gamma(1, 2) is the exponential: strictly decreasing prior. The final
	// bin absorbs the clamped tail mass, so it is exempt.
	p := GammaGenerator(1, 2).Prior(10)
	for i := 1; i < len(p)-1; i++ {
		if p[i] >= p[i-1] {
			t.Fatalf("gamma(1,2) prior not decreasing at %d: %v", i, p)
		}
	}
}

func TestGammaPriorMatchesSampling(t *testing.T) {
	// The analytic binned prior must agree with Monte-Carlo discretization of
	// actual gamma draws.
	const (
		n       = 10
		records = 400000
		alpha   = 1.0
		beta    = 2.0
	)
	prior := GammaGenerator(alpha, beta).Prior(n)
	upper := alpha*beta + 4*math.Sqrt(alpha)*beta
	r := randx.New(9)
	vals := make([]float64, records)
	for i := range vals {
		vals[i] = r.Gamma(alpha, beta)
	}
	d, err := Discretize(vals, n, 0, upper)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Distribution()
	for i := range prior {
		if math.Abs(got[i]-prior[i]) > 0.01 {
			t.Errorf("bin %d: sampled %v, analytic %v", i, got[i], prior[i])
		}
	}
}

func TestZipfPriorDecreasing(t *testing.T) {
	p := ZipfGenerator(1.5).Prior(8)
	for i := 1; i < len(p); i++ {
		if p[i] >= p[i-1] {
			t.Fatalf("zipf prior not decreasing: %v", p)
		}
	}
}

func TestBimodalPriorHasTwoPeaks(t *testing.T) {
	p := BimodalGenerator().Prior(12)
	peaks := 0
	for i := 1; i < len(p)-1; i++ {
		if p[i] > p[i-1] && p[i] >= p[i+1] {
			peaks++
		}
	}
	if peaks != 2 {
		t.Fatalf("bimodal prior has %d interior peaks, want 2: %v", peaks, p)
	}
}

func TestGeneratorGenerateMatchesPrior(t *testing.T) {
	g := DefaultNormal(10)
	r := randx.New(5)
	d, err := g.Generate(10, 100000, r)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Prior(10)
	got := d.Distribution()
	for i := range p {
		if math.Abs(got[i]-p[i]) > 0.01 {
			t.Errorf("category %d: %v vs prior %v", i, got[i], p[i])
		}
	}
}

func TestAdultLikeShape(t *testing.T) {
	a := DefaultAdult()
	r := randx.New(3)
	ages := a.Ages(200000, r)
	var sum, sumSq float64
	for _, v := range ages {
		if v < 17 || v > 90 {
			t.Fatalf("age %v out of [17, 90]", v)
		}
		sum += v
		sumSq += v * v
	}
	n := float64(len(ages))
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if mean < 36 || mean > 41 {
		t.Errorf("adult mean age = %v, want approx 38.6", mean)
	}
	if sd < 10 || sd > 16 {
		t.Errorf("adult age sd = %v, want approx 13", sd)
	}
}

func TestAdultLikeGenerate(t *testing.T) {
	a := DefaultAdult()
	r := randx.New(4)
	d, err := a.Generate(10, 50000, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.Categories() != 10 || d.Len() != 50000 {
		t.Fatalf("shape: %d categories, %d records", d.Categories(), d.Len())
	}
	p := d.Distribution()
	// Right-skewed: early-middle bins dominate the tail bins.
	if !(p[2] > p[8] && p[3] > p[9]) {
		t.Errorf("adult prior not right-skewed: %v", p)
	}
}

func TestAdultGeneratorPriorValid(t *testing.T) {
	g := DefaultAdult().Generator()
	p := g.Prior(10)
	if err := ValidateDistribution(p); err != nil {
		t.Fatal(err)
	}
	// Prior must be deterministic across calls.
	p2 := g.Prior(10)
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("adult prior is not deterministic")
		}
	}
}

func TestAdultLikeBadBounds(t *testing.T) {
	a := AdultLike{MinAge: 50, MaxAge: 40}
	if _, err := a.Generate(10, 10, randx.New(1)); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestPropertySampleDistributionSumsToOne(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		w := make([]float64, len(raw))
		var nonzero bool
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		p, err := Normalize(w)
		if err != nil {
			return false
		}
		d, err := Sample(p, 500, randx.New(seed))
		if err != nil {
			return false
		}
		got := d.Distribution()
		var sum float64
		for i, v := range got {
			if v < 0 {
				return false
			}
			// Zero-weight categories must never be sampled.
			if w[i] == 0 && v > 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSample10k(b *testing.B) {
	p := DefaultNormal(10).Prior(10)
	r := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(p, 10000, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdultGenerate(b *testing.B) {
	a := DefaultAdult()
	r := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Generate(10, 10000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSampleBatchDeterministicAcrossWorkers: the batch sampler's output
// depends only on (p, n, seed), never on the worker count, across record
// counts straddling the chunk boundary.
func TestSampleBatchDeterministicAcrossWorkers(t *testing.T) {
	p := []float64{0.5, 0.3, 0.15, 0.05}
	for _, n := range []int{0, 1, par.Chunk - 1, par.Chunk, 2*par.Chunk + 13} {
		want, err := SampleBatch(p, n, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := SampleBatch(p, n, 42, w)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() || got.Categories() != want.Categories() {
				t.Fatalf("n=%d workers=%d: shape (%d, %d), want (%d, %d)",
					n, w, got.Categories(), got.Len(), want.Categories(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.Record(i) != want.Record(i) {
					t.Fatalf("n=%d workers=%d: record %d = %d, want %d", n, w, i, got.Record(i), want.Record(i))
				}
			}
		}
	}
}

// TestSampleBatchConvergesToPrior mirrors TestSampleConvergesToPrior for the
// batch path.
func TestSampleBatchConvergesToPrior(t *testing.T) {
	p := []float64{0.1, 0.2, 0.3, 0.4}
	d, err := SampleBatch(p, 120000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Distribution()
	for i := range p {
		if math.Abs(got[i]-p[i]) > 0.01 {
			t.Errorf("category %d frequency %.4f, want %.4f ± 0.01", i, got[i], p[i])
		}
	}
}

// TestSampleBatchRejectsBadPrior: validation matches Sample.
func TestSampleBatchRejectsBadPrior(t *testing.T) {
	if _, err := SampleBatch([]float64{0.5, 0.6}, 10, 1, 1); !errors.Is(err, ErrBadDistribution) {
		t.Fatalf("err = %v, want ErrBadDistribution", err)
	}
}

// TestNamedGenerator pins the -dist table: every name resolves to the
// generator it stands for, and any other name is refused.
func TestNamedGenerator(t *testing.T) {
	const n = 10
	for name, want := range map[string]Generator{
		"normal":  DefaultNormal(n),
		"gamma":   GammaGenerator(1, 2),
		"uniform": UniformGenerator(),
		"zipf":    ZipfGenerator(1),
		"bimodal": BimodalGenerator(),
		"adult":   DefaultAdult().Generator(),
	} {
		g, ok := NamedGenerator(name, n)
		if !ok || g.Name != want.Name {
			t.Fatalf("%s: got %q (ok %v), want %q", name, g.Name, ok, want.Name)
		}
		got, wantPrior := g.Prior(n), want.Prior(n)
		for i := range wantPrior {
			if got[i] != wantPrior[i] {
				t.Fatalf("%s: prior[%d] = %v, want %v", name, i, got[i], wantPrior[i])
			}
		}
	}
	for _, name := range []string{"", "Normal", "poisson"} {
		if _, ok := NamedGenerator(name, n); ok {
			t.Fatalf("%q resolved", name)
		}
	}
}

// TestReadIndices covers the one-index-per-line reader: blank and '#' lines
// are skipped, surrounding space is trimmed, and a bad line is reported as
// path:line.
func TestReadIndices(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("# header\n2\n\n  0 \n# note\n7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadIndices(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0] != 2 || recs[1] != 0 || recs[2] != 7 {
		t.Fatalf("records = %v, want [2 0 7]", recs)
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("1\n\nseven\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndices(bad); err == nil || !strings.HasPrefix(err.Error(), bad+":3: ") {
		t.Fatalf("bad line: err = %v, want a %s:3 prefix", err, bad)
	}
	if _, err := ReadIndices(filepath.Join(dir, "missing.txt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v", err)
	}
}
