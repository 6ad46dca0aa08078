package main

import (
	"math"
	"sort"

	"optrr/internal/randx"
)

// Every input the program sees is generated here from the workload seed:
// the same seed gives the same prior, joint distribution and value streams.

// Stream indices split one workload seed into independent generators.
const (
	streamPrior = iota
	streamJoint
	streamSearch
	streamValues
	streamPrePhase
	streamDisguise
	streamPerm
	streamHash
)

// normalPrior is the paper's Figure 4 data set drawn afresh: records
// samples of a normal with mean (n−1)/2 and standard deviation n/5, rounded
// to the nearest of n categories, as an empirical distribution.
func normalPrior(n, records int, seed uint64) []float64 {
	rng := randx.Stream(seed, streamPrior)
	mean, sd := float64(n-1)/2, float64(n)/5
	counts := make([]float64, n)
	for i := 0; i < records; i++ {
		x := int(math.Round(rng.Normal(mean, sd)))
		x = min(max(x, 0), n-1)
		counts[x]++
	}
	for i := range counts {
		counts[i] /= float64(records)
	}
	return counts
}

// correlatedJoint is a joint distribution over the product of sizes whose
// attributes co-vary: each record draws one latent normal and places every
// attribute near the same quantile of its range, plus its own noise.
// Row-major, attribute 0 slowest, as core.MultiConfig expects. One pseudo
// count per cell keeps every cell possible.
func correlatedJoint(sizes []int, records int, seed uint64) []float64 {
	rng := randx.Stream(seed, streamJoint)
	cells := 1
	for _, s := range sizes {
		cells *= s
	}
	joint := make([]float64, cells)
	for i := range joint {
		joint[i] = 1
	}
	for r := 0; r < records; r++ {
		latent := rng.Norm()
		idx := 0
		for _, s := range sizes {
			u := 0.5 + 0.3*latent + 0.2*rng.Norm()
			x := min(max(int(u*float64(s)), 0), s-1)
			idx = idx*s + x
		}
		joint[idx]++
	}
	total := float64(records + cells)
	for i := range joint {
		joint[i] /= total
	}
	return joint
}

// zipf draws from a Zipf(1) law over a domain whose ranks are scattered by a
// seeded permutation, so the planted head lands on different categories (and
// different hash cells) on every seed.
type zipf struct {
	cdf  []float64
	perm []int // perm[rank] is the category of that rank
}

func newZipf(domain int, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, domain)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	z.perm = randx.Stream(seed, streamPerm).Perm(domain)
	return z
}

func (z *zipf) draw(rng *randx.Source) int {
	rank := sort.SearchFloat64s(z.cdf, rng.Float64())
	return z.perm[min(rank, len(z.perm)-1)]
}

// head returns the categories of the k most frequent ranks.
func (z *zipf) head(k int) []int { return append([]int(nil), z.perm[:k]...) }

// valueBatch is one pre-generated batch of private values plus its
// histogram over the categories the correctness checks track.
type valueBatch struct {
	values []int
	counts []int // counts[i] = occurrences of tracked[i]
}

// batchPool pre-generates batches of private values so the load loop spends
// nothing on generating inputs; draw is called once per value.
func batchPool(batches, size int, tracked []int, rng *randx.Source, draw func(*randx.Source) int) []valueBatch {
	pos := make(map[int]int, len(tracked))
	for i, c := range tracked {
		pos[c] = i
	}
	pool := make([]valueBatch, batches)
	for b := range pool {
		vb := valueBatch{values: make([]int, size), counts: make([]int, len(tracked))}
		for i := range vb.values {
			v := draw(rng)
			vb.values[i] = v
			if k, ok := pos[v]; ok {
				vb.counts[k]++
			}
		}
		pool[b] = vb
	}
	return pool
}
