package mining

import (
	"errors"
	"testing"
)

// fakeEstimator serves a fixed frequency vector and records how many
// categories each Estimate call asked for.
type fakeEstimator struct {
	freqs      []float64
	calls      int
	maxPerCall int
	fail       error
}

func (f *fakeEstimator) Categories() int { return len(f.freqs) }

func (f *fakeEstimator) Estimate(categories ...int) ([]float64, error) {
	f.calls++
	if len(categories) > f.maxPerCall {
		f.maxPerCall = len(categories)
	}
	if f.fail != nil {
		return nil, f.fail
	}
	out := make([]float64, len(categories))
	for i, c := range categories {
		out[i] = f.freqs[c]
	}
	return out, nil
}

func skewedFreqs(domain int) []float64 {
	freqs := make([]float64, domain)
	rest := 1.0
	for _, hh := range []struct {
		cat int
		f   float64
	}{{7, 0.30}, {4999, 0.20}, {123, 0.10}} {
		freqs[hh.cat] = hh.f
		rest -= hh.f
	}
	per := rest / float64(domain-3)
	for i := range freqs {
		if freqs[i] == 0 {
			freqs[i] = per
		}
	}
	return freqs
}

func TestHeavyHittersScansInChunks(t *testing.T) {
	est := &fakeEstimator{freqs: skewedFreqs(10000)}
	hits, err := HeavyHitters(est, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []Frequent{{7, 0.30}, {4999, 0.20}, {123, 0.10}}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits[%d] = %v, want %v", i, hits[i], want[i])
		}
	}
	if est.maxPerCall > hitterChunk {
		t.Fatalf("one estimate call covered %d categories, cap is %d", est.maxPerCall, hitterChunk)
	}
	if wantCalls := (10000 + hitterChunk - 1) / hitterChunk; est.calls != wantCalls {
		t.Fatalf("scan made %d estimate calls, want %d", est.calls, wantCalls)
	}
}

func TestTopK(t *testing.T) {
	est := &fakeEstimator{freqs: skewedFreqs(10000)}
	hits, err := TopK(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Category != 7 || hits[1].Category != 4999 {
		t.Fatalf("top-2 = %v", hits)
	}
	if _, err := TopK(est, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	// k larger than the domain returns everything, sorted.
	small := &fakeEstimator{freqs: []float64{0.2, 0.5, 0.3}}
	all, err := TopK(small, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].Category != 1 || all[1].Category != 2 || all[2].Category != 0 {
		t.Fatalf("top-10 of 3 = %v", all)
	}
}

func TestHeavyHittersPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	est := &fakeEstimator{freqs: make([]float64, 10), fail: boom}
	if _, err := HeavyHitters(est, 0.1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := HeavyHitters(&fakeEstimator{}, 0.1); err == nil {
		t.Fatal("empty domain accepted")
	}
}

// TestFrequenciesScan: a debiased vector scans exactly like an estimator
// serving the same values, and out-of-domain queries are errors.
func TestFrequenciesScan(t *testing.T) {
	freqs := skewedFreqs(10000)
	hits, err := HeavyHitters(Frequencies(freqs), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HeavyHitters(&fakeEstimator{freqs: freqs}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits[%d] = %v, want %v", i, hits[i], want[i])
		}
	}
	if _, err := Frequencies(freqs).Estimate(10000); err == nil {
		t.Fatal("out-of-domain category accepted")
	}
}
