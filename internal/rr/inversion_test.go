package rr

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// inversionCounts is a report fold under which Warner(4, 0.6)'s raw
// inversion estimate goes negative on the last category, so the clip is
// exercised: its disguised share 0.05 is below the 0.4/3 floor every
// category reaches through the off-diagonal.
var inversionCounts = []int{400, 300, 250, 50}

// uncached is the oracle for the matrix's cached inversion: the raw
// estimate from a fresh matrix.Dense.Solve, and the reconstruction with its
// half-widths computed the way the collector computed them before the
// Theorem-6 loop moved into rr — clip, then the loop of
// metrics.PerCategoryMSEWithInverse over a freshly built inverse, then
// z·√MSE — with the requested categories picked last.
func uncached(t *testing.T, m *Matrix, counts, categories []int, z float64) ([]float64, Reconstruction) {
	t.Helper()
	n := m.N()
	total := 0
	for _, c := range counts {
		total += c
	}
	pStar := make([]float64, n)
	inv := 1 / float64(total)
	for k, c := range counts {
		pStar[k] = float64(c) * inv
	}
	raw, err := m.Dense().Solve(pStar)
	if err != nil {
		t.Fatal(err)
	}
	est := Clip(raw)
	beta, err := m.Dense().Inverse()
	if err != nil {
		t.Fatal(err)
	}
	implied, err := m.DisguisedDistribution(est)
	if err != nil {
		t.Fatal(err)
	}
	invN := 1 / float64(total)
	half := make([]float64, n)
	for k := 0; k < n; k++ {
		var quad, mean float64
		for i := 0; i < n; i++ {
			b := beta.At(k, i)
			quad += b * b * implied[i]
			mean += b * implied[i]
		}
		mse := invN * (quad - mean*mean)
		if mse < 0 {
			mse = 0
		}
		if mse > 0 {
			half[k] = z * math.Sqrt(mse)
		}
	}
	if categories != nil {
		raw, est, half = pickAll(raw, categories), pickAll(est, categories), pickAll(half, categories)
	}
	return raw, Reconstruction{Disguised: pStar, Estimate: est, HalfWidth: half}
}

func pickAll(full []float64, categories []int) []float64 {
	out := make([]float64, len(categories))
	for i, x := range categories {
		out[i] = full[x]
	}
	return out
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle compares m's EstimateFrom and Reconstruct with the
// uncached oracle bit for bit; it is safe to call from several goroutines.
func checkAgainstOracle(t *testing.T, m *Matrix, wantRaw []float64, want Reconstruction, categories []int, z float64) {
	raw, err := m.EstimateFrom(inversionCounts, categories)
	if err != nil {
		t.Error(err)
		return
	}
	if !sameBits(raw, wantRaw) {
		t.Errorf("EstimateFrom = %v, oracle %v", raw, wantRaw)
	}
	r, err := m.Reconstruct(inversionCounts, categories, z)
	if err != nil {
		t.Error(err)
		return
	}
	if !sameBits(r.Disguised, want.Disguised) || !sameBits(r.Estimate, want.Estimate) || !sameBits(r.HalfWidth, want.HalfWidth) {
		t.Errorf("Reconstruct = %+v, oracle %+v", r, want)
	}
}

func TestInversionCacheMatchesOracle(t *testing.T) {
	m := mustMatrix(t)(Warner(4, 0.6))
	for _, cats := range [][]int{nil, {3, 0, 3}} {
		raw, want := uncached(t, m, inversionCounts, cats, 1.96)
		if cats == nil && !(raw[3] < 0 && want.Estimate[3] == 0) {
			t.Fatalf("raw %v, clipped %v: the fold no longer exercises the clip", raw, want.Estimate)
		}
		for pass := 0; pass < 2; pass++ { // the second pass reads the cache
			checkAgainstOracle(t, m, raw, want, cats, 1.96)
		}
	}
	r, err := m.Reconstruct(inversionCounts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.HalfWidth != nil {
		t.Fatalf("z = 0 stated half-widths %v", r.HalfWidth)
	}
}

// TestInversionCacheCleared: after SetColumns or UnmarshalJSON changes a
// matrix whose inversion is cached, its estimates are a fresh matrix's bit
// for bit, not the stale factorization's.
func TestInversionCacheCleared(t *testing.T) {
	next := mustMatrix(t)(FRAPP(4, 2.5))
	cols := make([][]float64, 4)
	for i := range cols {
		cols[i] = next.Column(i)
	}
	data, err := next.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		change func(m *Matrix) error
	}{
		{"SetColumns", func(m *Matrix) error { return m.SetColumns(cols) }},
		{"UnmarshalJSON", func(m *Matrix) error { return m.UnmarshalJSON(data) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMatrix(t)(Warner(4, 0.6))
			before, err := m.Reconstruct(inversionCounts, nil, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.change(m); err != nil {
				t.Fatal(err)
			}
			fresh := mustMatrix(t)(FromColumns(cols))
			raw, want := uncached(t, fresh, inversionCounts, nil, 1.96)
			if sameBits(before.Estimate, want.Estimate) {
				t.Fatal("both matrices reconstruct the same: the test cannot see a stale cache")
			}
			checkAgainstOracle(t, m, raw, want, nil, 1.96)
			checkAgainstOracle(t, fresh, raw, want, nil, 1.96)
		})
	}
}

// TestInversionCacheRace runs the first Reconstruct and EstimateFrom of a
// fresh matrix on 8 goroutines at once (run under -race in ci.sh): every
// result is the uncached oracle's bit for bit, whichever build wins.
func TestInversionCacheRace(t *testing.T) {
	m := mustMatrix(t)(Warner(4, 0.6))
	raw, want := uncached(t, m, inversionCounts, nil, 1.96)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			checkAgainstOracle(t, m, raw, want, nil, 1.96)
		}()
	}
	close(start)
	wg.Wait()
}

// TestInversionSingularCached: a singular matrix's estimates fail with
// ErrSingular, and the refusal is cached with the factorization: a second
// call returns the same error without factorizing again.
func TestInversionSingularCached(t *testing.T) {
	m := singularLeakyMatrix(t)
	counts := []int{5, 3, 2}
	_, first := m.EstimateFrom(counts, nil)
	if !errors.Is(first, ErrSingular) {
		t.Fatalf("EstimateFrom err = %v, want ErrSingular", first)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Reconstruct(counts, nil, 1.96); err != first {
			t.Fatalf("Reconstruct call %d err = %v, want the cached %v", i, err, first)
		}
		if _, err := m.EstimateFrom(counts, nil); err != first {
			t.Fatalf("EstimateFrom call %d err = %v, want the cached %v", i, err, first)
		}
	}
}
