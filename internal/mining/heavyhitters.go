package mining

import (
	"fmt"
	"sort"
)

// Heavy-hitter discovery: finding the frequent categories of a huge domain
// from privately collected reports, the mining task that motivates
// decoupling domain size from matrix size. The discovery runs against any
// FrequencyEstimator and scans the domain in bounded chunks, so the working
// set never holds a full domain-sized estimate vector unless the estimator
// already is one (Frequencies).

// FrequencyEstimator answers debiased point queries over an original
// categorical domain. collector.Collector implements it (every call folds
// and debiases afresh); Frequencies serves an already-debiased vector; any
// source of per-category frequency estimates (a remote /v1/estimate
// endpoint, a test fake) can stand in.
type FrequencyEstimator interface {
	// Categories returns the domain size.
	Categories() int
	// Estimate returns debiased frequency estimates for the requested
	// categories, in order.
	Estimate(categories ...int) ([]float64, error)
}

// Frequencies is a FrequencyEstimator over an already-debiased full-domain
// frequency vector. Scanning it costs one debias in total, where scanning a
// live collector debiases once per chunk.
type Frequencies []float64

// Categories returns the domain size.
func (f Frequencies) Categories() int { return len(f) }

// Estimate returns a copy of the requested categories' frequencies.
func (f Frequencies) Estimate(categories ...int) ([]float64, error) {
	out := make([]float64, len(categories))
	for i, x := range categories {
		if x < 0 || x >= len(f) {
			return nil, fmt.Errorf("mining: category %d outside the %d-category domain", x, len(f))
		}
		out[i] = f[x]
	}
	return out, nil
}

// Frequent is one discovered heavy hitter: a category index and its
// debiased frequency estimate.
type Frequent struct {
	Category int
	Estimate float64
}

// hitterChunk bounds how many categories one Estimate call covers during a
// domain scan, capping the transient memory at O(chunk) independent of the
// domain.
const hitterChunk = 4096

// HeavyHitters scans the estimator's domain and returns every category whose
// estimated frequency is at least threshold, sorted by estimate descending
// (ties by category index).
func HeavyHitters(est FrequencyEstimator, threshold float64) ([]Frequent, error) {
	return scanHitters(est, func(hits []Frequent) []Frequent { return hits }, threshold)
}

// TopK scans the estimator's domain and returns the k categories with the
// largest estimated frequencies, sorted descending (ties by category index).
func TopK(est FrequencyEstimator, k int) ([]Frequent, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mining: top-k needs a positive k, got %d", k)
	}
	trim := func(hits []Frequent) []Frequent {
		// Keep the running set small: sort and cut back to k between chunks
		// so the scan carries at most k + hitterChunk candidates.
		sortHitters(hits)
		if len(hits) > k {
			hits = hits[:k]
		}
		return hits
	}
	hits, err := scanHitters(est, trim, -1)
	if err != nil {
		return nil, err
	}
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}

// scanHitters walks the domain in hitterChunk-sized estimate calls, keeping
// categories whose estimate clears threshold and letting trim compact the
// running candidate set after each chunk.
func scanHitters(est FrequencyEstimator, trim func([]Frequent) []Frequent, threshold float64) ([]Frequent, error) {
	domain := est.Categories()
	if domain <= 0 {
		return nil, fmt.Errorf("mining: estimator reports a %d-category domain", domain)
	}
	var hits []Frequent
	cats := make([]int, 0, hitterChunk)
	for lo := 0; lo < domain; lo += hitterChunk {
		hi := lo + hitterChunk
		if hi > domain {
			hi = domain
		}
		cats = cats[:0]
		for x := lo; x < hi; x++ {
			cats = append(cats, x)
		}
		ests, err := est.Estimate(cats...)
		if err != nil {
			return nil, err
		}
		if len(ests) != len(cats) {
			return nil, fmt.Errorf("mining: estimator returned %d estimates for %d categories", len(ests), len(cats))
		}
		for i, e := range ests {
			if e >= threshold {
				hits = append(hits, Frequent{Category: cats[i], Estimate: e})
			}
		}
		hits = trim(hits)
	}
	sortHitters(hits)
	return hits, nil
}

func sortHitters(hits []Frequent) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Estimate != hits[j].Estimate {
			return hits[i].Estimate > hits[j].Estimate
		}
		return hits[i].Category < hits[j].Category
	})
}
