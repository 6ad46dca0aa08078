package core

import (
	"fmt"
	"testing"

	"optrr/internal/randx"
)

// BenchmarkRepair measures MeetBoundStats on freshly drawn random genomes —
// the per-child cost of Section V-G's bound repair. Repair mutates the
// genome in place, so each iteration restores a pristine copy into a
// preallocated working genome (the copy cost is identical across variants).
// The scratch variant threads the reusable slack buffer exactly as the
// optimizer's worker loop does.
func BenchmarkRepair(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		r := randx.New(uint64(n))
		// A skewed prior (mode 0.5) with delta just above the Theorem 5
		// floor, so random genomes routinely violate the bound and the
		// bench exercises actual repair rounds, not only the feasibility
		// scan. A draw budget guards against configurations where
		// violations happen to be rare.
		prior := make([]float64, n)
		prior[0] = 0.5
		for i := 1; i < n; i++ {
			prior[i] = 0.5 / float64(n-1)
		}
		const delta = 0.6
		pool := make([]Genome, 0, 32)
		for attempts := 0; len(pool) < cap(pool) && attempts < 10000; attempts++ {
			g := NewRandomGenome(n, r)
			if ok, st := MeetBoundStats(g.Clone(), prior, delta, false); ok && st.Rounds > 0 {
				pool = append(pool, g)
			}
		}
		if len(pool) == 0 {
			b.Fatalf("n=%d: no repair-needing genomes in 10000 draws", n)
		}
		work := NewRandomGenome(n, r)
		restore := func(src Genome) {
			for c := range src {
				copy(work[c], src[c])
			}
		}
		// One untimed pass over the pool warms caches and branch predictors
		// before either variant is measured; without it the first sub-bench
		// at low pinned iteration counts absorbs the cold-start cost and the
		// fresh-vs-scratch comparison wobbles by hundreds of ns/op.
		warmup := func(b *testing.B, repair func() bool) {
			for range pool {
				if !repair() {
					b.Fatal("unrepairable genome in pool")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
		}

		b.Run(fmt.Sprintf("fresh-slack/n=%d", n), func(b *testing.B) {
			i := 0
			repair := func() bool {
				restore(pool[i%len(pool)])
				i++
				ok, _ := MeetBoundStats(work, prior, delta, false)
				return ok
			}
			warmup(b, repair)
			for j := 0; j < b.N; j++ {
				if !repair() {
					b.Fatal("unrepairable genome in pool")
				}
			}
		})
		b.Run(fmt.Sprintf("scratch/n=%d", n), func(b *testing.B) {
			sc := newWorkerScratch()
			i := 0
			repair := func() bool {
				restore(pool[i%len(pool)])
				i++
				ok, _ := meetBoundStats(work, prior, delta, false, sc.slackFor(n))
				return ok
			}
			warmup(b, repair)
			for j := 0; j < b.N; j++ {
				if !repair() {
					b.Fatal("unrepairable genome in pool")
				}
			}
		})
	}
}

// BenchmarkRealizeSteadyState measures the per-genome hot path the
// optimizer runs every generation — realizeGenome: materialize, evaluate
// within the bound, and repair and re-evaluate on a miss — through one
// worker's persistent scratch. Steady-state allocs/op should be zero.
func BenchmarkRealizeSteadyState(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		r := randx.New(uint64(n))
		prior := make([]float64, n)
		var sum float64
		for i := range prior {
			prior[i] = 0.05 + r.Float64()
			sum += prior[i]
		}
		for i := range prior {
			prior[i] /= sum
		}
		pool := make([]Genome, 32)
		for i := range pool {
			pool[i] = NewRandomGenome(n, r)
		}
		work := NewRandomGenome(n, r)
		cfg := DefaultConfig(prior, 10000, 0.8)
		cfg.Workers = 1
		o, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := pool[i%len(pool)]
				for c := range src {
					copy(work[c], src[c])
				}
				o.realizeGenome(work, 0)
			}
		})
	}
}
