package metrics

import (
	"fmt"
	"testing"

	"optrr/internal/randx"
)

// BenchmarkEvaluate compares the fused Workspace evaluator against the
// formula-by-formula EvaluateComposed oracle across category counts.
// The fused/n=10 case is the optimizer's hot path (one call per genome per
// generation); steady-state allocs/op must be 0.
func BenchmarkEvaluate(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		r := randx.New(uint64(n))
		m := randomStochastic(r, n, 0)
		prior := randomPrior(r, n)

		b.Run(fmt.Sprintf("composed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateComposed(m, prior, 10000); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			ws := NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Evaluate(m, prior, 10000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxPosterior isolates the bound check: the package-level
// MaxPosterior, which builds a throwaway Workspace per call ("composed"),
// against a held Workspace ("fused").
func BenchmarkMaxPosterior(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		r := randx.New(uint64(n))
		m := randomStochastic(r, n, 0)
		prior := randomPrior(r, n)

		b.Run(fmt.Sprintf("composed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MaxPosterior(m, prior); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			ws := NewWorkspace()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.MaxPosterior(m, prior); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
