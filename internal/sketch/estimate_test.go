package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/randx"
)

// refHash is Hash written out with bits.Div64 for the affine stage, as a
// reference the shipped hash must keep matching: clients and stored
// snapshots depend on its exact output.
func refHash(a, b uint64, m int, x uint64) int {
	hi, lo := bits.Mul64(a, x)
	_, rem := bits.Div64(hi, lo, hashPrime)
	return int(mix64((rem+b)%hashPrime) % uint64(m))
}

// refEstimate is the whole-grid estimator the per-cell one replaced, kept
// as a test oracle: every row's cells debiased up front through
// inner.Inverse().MulVecInto (and every cell's CMSRowVariance when bounds are asked
// for), then O(k) Hash calls per category over a domain-sized index vector.
func refEstimate(s *CMSScheme, counts []int, categories []int, z, ell2 float64) (ests, bounds []float64, err error) {
	inv, err := s.inner.Inverse()
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	weights := make([]float64, s.hashes)
	cells := make([][]float64, s.hashes)
	pStar := make([]float64, s.rangeM)
	for j := 0; j < s.hashes; j++ {
		row := counts[j*s.rangeM : (j+1)*s.rangeM]
		rowTotal := 0
		for _, c := range row {
			rowTotal += c
		}
		if rowTotal == 0 {
			continue
		}
		weights[j] = float64(rowTotal) / float64(total)
		invTotal := 1 / float64(rowTotal)
		for v, c := range row {
			pStar[v] = float64(c) * invTotal
		}
		t := make([]float64, s.rangeM)
		if err := inv.MulVecInto(t, pStar); err != nil {
			return nil, nil, err
		}
		cells[j] = t
	}
	withBound := z > 0
	m := float64(s.rangeM)
	debiased := make([][]float64, s.hashes)
	rowVar := make([][]float64, s.hashes)
	for j, t := range cells {
		if t == nil {
			continue
		}
		d := make([]float64, s.rangeM)
		for u, tv := range t {
			d[u] = (m*tv - 1) / (m - 1)
		}
		debiased[j] = d
		if !withBound {
			continue
		}
		row := counts[j*s.rangeM : (j+1)*s.rangeM]
		rowTotal := 0
		for _, c := range row {
			rowTotal += c
		}
		pStar := make([]float64, s.rangeM)
		invTotal := 1 / float64(rowTotal)
		for v, c := range row {
			pStar[v] = float64(c) * invTotal
		}
		vr := make([]float64, s.rangeM)
		for u := range vr {
			if vr[u], err = metrics.CMSRowVariance(inv.RowView(u), pStar, rowTotal, s.rangeM); err != nil {
				return nil, nil, err
			}
		}
		rowVar[j] = vr
	}
	if categories == nil {
		categories = make([]int, s.domain)
		for x := range categories {
			categories[x] = x
		}
	}
	ests = make([]float64, len(categories))
	if withBound {
		bounds = make([]float64, len(categories))
	}
	collision := 0.0
	if withBound {
		collision = metrics.CMSCollisionStd(ell2, s.rangeM, s.hashes)
	}
	for i, x := range categories {
		var est, variance float64
		for j := 0; j < s.hashes; j++ {
			if debiased[j] == nil {
				continue
			}
			u := s.Hash(j, x)
			w := weights[j]
			est += w * debiased[j][u]
			if withBound {
				variance += w * w * rowVar[j][u]
			}
		}
		ests[i] = est
		if withBound {
			bounds[i] = z * (math.Sqrt(variance) + collision)
		}
	}
	return ests, bounds, nil
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d values (nil %v), want %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit for bit)", what, i, got[i], want[i])
		}
	}
}

// TestEstimateMatchesReference pins the per-cell estimator to the
// whole-grid oracle bit for bit, on the shapes the fuzz fold never reaches:
// domains on both sides of the scan's block boundary (1, 2047, 2048, 2049,
// 3·2048+17), a hash range that is not a power of two, a sketch row without
// reports, both paths (full domain and named categories, with repeats and
// block-edge categories), with and without bounds.
func TestEstimateMatchesReference(t *testing.T) {
	for _, domain := range []int{1, scanChunk - 1, scanChunk, scanChunk + 1, 3*scanChunk + 17} {
		for _, m := range []int{16, 37} {
			for _, emptyRow := range []bool{false, true} {
				name := fmt.Sprintf("domain=%d/m=%d/emptyRow=%v", domain, m, emptyRow)
				t.Run(name, func(t *testing.T) {
					s, err := NewKRR(domain, 5, m, 3, uint64(domain*m))
					if err != nil {
						t.Fatal(err)
					}
					rng := randx.New(uint64(domain + m))
					counts := make([]int, s.ReportSpace())
					for i := range counts {
						counts[i] = rng.Intn(40)
					}
					if emptyRow {
						clear(counts[2*m : 3*m])
					}
					named := []int{0, domain - 1, domain / 2, 0}
					if domain > scanChunk {
						named = append(named, scanChunk-1, scanChunk, domain-1)
					}
					for i := 0; i < 20; i++ {
						named = append(named, rng.Intn(domain))
					}
					for _, z := range []float64{0, 1.96} {
						for _, cats := range [][]int{nil, named} {
							got, gotB, err := s.EstimateWithBound(counts, cats, z, 0.5)
							if err != nil {
								t.Fatal(err)
							}
							want, wantB, err := refEstimate(s, counts, cats, z, 0.5)
							if err != nil {
								t.Fatal(err)
							}
							what := fmt.Sprintf("z=%v full=%v", z, cats == nil)
							sameBits(t, what+" estimate", got, want)
							sameBits(t, what+" bound", gotB, wantB)
						}
					}
				})
			}
		}
	}
}
