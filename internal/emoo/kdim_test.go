package emoo

import (
	"fmt"
	"slices"
	"testing"

	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// kdimCloud draws a point cloud with the given number of objectives on
// realistic, wildly different scales: privacy ≈ 0.5, utility ≈ 1e-4, and
// every extra axis on its own scale — the configuration the per-objective
// normalization exists for.
func kdimCloud(n, dim int, r *randx.Source) []pareto.Point {
	pts := make([]pareto.Point, n)
	extras := make([]float64, dim-2)
	for i := range pts {
		for t := range extras {
			scale := float64(uint64(1) << (4 * uint(t)))
			extras[t] = scale * r.Float64()
		}
		pts[i] = pareto.NewPoint(0.3+0.35*r.Float64(), 1e-4*(1+10*r.Float64()), extras...)
	}
	return pts
}

// fitnessEqual asserts two Fitness values are bit-for-bit identical.
func fitnessEqual(t *testing.T, label string, a, b Fitness) {
	t.Helper()
	for i := range a.Value {
		if a.Strength[i] != b.Strength[i] || a.Raw[i] != b.Raw[i] ||
			a.Density[i] != b.Density[i] || a.Value[i] != b.Value[i] {
			t.Fatalf("%s: fitness differs at %d: (%d %v %v %v) vs (%d %v %v %v)",
				label, i,
				a.Strength[i], a.Raw[i], a.Density[i], a.Value[i],
				b.Strength[i], b.Raw[i], b.Density[i], b.Value[i])
		}
	}
}

// cloneFitness copies a scratch-aliased Fitness so it survives the next call.
func cloneFitness(f Fitness) Fitness {
	return Fitness{
		Strength: append([]int(nil), f.Strength...),
		Raw:      append([]float64(nil), f.Raw...),
		Density:  append([]float64(nil), f.Density...),
		Value:    append([]float64(nil), f.Value...),
	}
}

// TestAssignFitnessKDimScratchReuse pins the scratch-reuse guarantee on
// k-dim points: a warm, previously-used Scratch must be bit-for-bit
// identical to a fresh one for every dimension, not just the canonical pair.
func TestAssignFitnessKDimScratchReuse(t *testing.T) {
	r := randx.New(31)
	warm := NewScratch()
	for _, dim := range []int{3, 4, 6} {
		for _, n := range []int{2, 17, 80, 130} {
			pts := kdimCloud(n, dim, r)
			for _, k := range []int{1, 3} {
				for _, normalize := range []bool{true, false} {
					cfg := Config{KNearest: k, Normalize: normalize}
					want := cloneFitness(NewScratch().AssignFitness(pts, cfg))
					got := warm.AssignFitness(pts, cfg)
					label := fmt.Sprintf("dim=%d n=%d k=%d norm=%v", dim, n, k, normalize)
					fitnessEqual(t, label, want, got)
				}
			}
		}
	}
}

// TestSelectEnvironmentKDimScratchReuse drives the truncation path (capacity
// below the non-dominated count) on k-dim points through a reused Scratch,
// including the scale-change rebuild when normalization is on.
func TestSelectEnvironmentKDimScratchReuse(t *testing.T) {
	r := randx.New(47)
	warm := NewScratch()
	for _, dim := range []int{3, 4} {
		for _, n := range []int{20, 60, 110} {
			pts := kdimCloud(n, dim, r)
			for _, normalize := range []bool{true, false} {
				cfg := Config{KNearest: 1, Normalize: normalize}
				sFit := NewScratch().AssignFitness(pts, cfg)
				want, err := SelectEnvironment(pts, sFit, n/3, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want = append([]int(nil), want...)
				fit := warm.AssignFitness(pts, cfg)
				got, err := warm.SelectEnvironment(pts, fit, n/3, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("dim=%d n=%d: %d selected, want %d", dim, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("dim=%d n=%d norm=%v: selection differs at %d: %d vs %d",
							dim, n, normalize, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScratchReusedAcrossDimensions drives one Scratch alternately with 2-D
// and k-dim clouds: the per-dimension state (scales, dim) must reset
// correctly between calls, and the 2-D results must equal a fresh scratch's.
func TestScratchReusedAcrossDimensions(t *testing.T) {
	r := randx.New(53)
	cfg := Config{KNearest: 1, Normalize: true}
	s := NewScratch()
	for round := 0; round < 4; round++ {
		dim := 2 + (round%3)*1 // 2, 3, 4, 2
		pts := kdimCloud(40, max(dim, 2), r)
		if dim == 2 {
			flat := make([]pareto.Point, len(pts))
			for i, p := range pts {
				flat[i] = pareto.Point{Privacy: p.Privacy, Utility: p.Utility}
			}
			pts = flat
		}
		got := cloneFitness(s.AssignFitness(pts, cfg))
		want := cloneFitness(NewScratch().AssignFitness(pts, cfg))
		fitnessEqual(t, fmt.Sprintf("round %d dim %d", round, dim), want, got)
	}
}

// TestAssignFitnessKDimZeroAlloc checks the steady-state allocation contract
// on both the 2-D fast path and the generic k-dim path.
func TestAssignFitnessKDimZeroAlloc(t *testing.T) {
	r := randx.New(61)
	for _, dim := range []int{2, 3} {
		pts := kdimCloud(64, dim, r)
		cfg := Config{KNearest: 1, Normalize: true}
		s := NewScratch()
		s.AssignFitness(pts, cfg) // warm the buffers
		allocs := testing.AllocsPerRun(10, func() {
			s.AssignFitness(pts, cfg)
		})
		if allocs != 0 {
			t.Errorf("dim=%d: %v allocs/op in steady state, want 0", dim, allocs)
		}
	}
}

// truncationCloud builds a dim-objective cloud whose truncation first
// removes the sole privacy maximum: a 6×6 grid spaced 0.1 apart in privacy
// and utility, plus a tight triple {max, upper, lower} to its right whose
// outer member is the nearest neighbour of both others. It returns the
// cloud and the index of that maximum.
func truncationCloud(dim int) ([]pareto.Point, int) {
	extras := make([]float64, dim-2)
	var pts []pareto.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for t := range extras {
				extras[t] = 0.1 * float64((i*(t+3)+j)%6)
			}
			pts = append(pts, pareto.NewPoint(0.1*float64(i), 0.1*float64(j), extras...))
		}
	}
	for t := range extras {
		extras[t] = 0.25
	}
	pts = append(pts,
		pareto.NewPoint(0.7, 0.25, extras...),
		pareto.NewPoint(0.699, 0.251, extras...),
		pareto.NewPoint(0.699, 0.249, extras...))
	return pts, 36
}

// TestSelectEnvironmentTruncationZeroAlloc checks the steady-state
// allocation contract of SelectEnvironment's truncation path, including the
// rebuild after a removal changes the normalization scales, on both the 2-D
// kernels and the k-dim ones, and pins the selection to the reference. A
// fitness of all zeros counts every point as non-dominated, so the whole
// cloud enters truncation. (Among genuinely non-dominated 2-D points a sole
// extremum is never removed while another point remains: its neighbour
// along the front is at least as close to every other point. So this is the
// only test that drives the 2-D rebuild.)
func TestSelectEnvironmentTruncationZeroAlloc(t *testing.T) {
	cfg := Config{KNearest: 1, Normalize: true}
	for _, dim := range []int{2, 3} {
		pts, extreme := truncationCloud(dim)
		fit := Fitness{Value: make([]float64, len(pts))}
		s := NewScratch()
		first, err := s.SelectEnvironment(pts, fit, len(pts)-1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(first, extreme) {
			t.Fatalf("dim=%d: first victim is not the privacy maximum %d; the scale-change rebuild is not exercised", dim, extreme)
		}
		capacity := len(pts) / 4
		got, err := s.SelectEnvironment(pts, fit, capacity, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSelectEnvironment(pts, fit, capacity, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dim=%d: selection %v, reference %v", dim, got, want)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.SelectEnvironment(pts, fit, capacity, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("dim=%d: %v allocs/op in steady state, want 0", dim, allocs)
		}
	}
}

// TestNSGA2KDim checks that the alternative engine survives k-dim points:
// rank-0 members must be exactly the non-dominated set and crowding spans
// every objective.
func TestNSGA2KDim(t *testing.T) {
	r := randx.New(71)
	pts := kdimCloud(50, 3, r)
	rank := NondominatedSort(pts)
	frontIdx := map[int]bool{}
	for _, i := range pareto.Front(pts) {
		frontIdx[i] = true
	}
	for i, rk := range rank {
		if (rk == 0) != frontIdx[i] {
			t.Fatalf("point %d: rank %d but front membership %v", i, rk, frontIdx[i])
		}
	}
	sel, err := NSGA2Select(pts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 20 {
		t.Fatalf("selected %d, want 20", len(sel))
	}
}

// BenchmarkAssignFitnessK3 is the pinned k-dim companion of
// BenchmarkAssignFitness: the same cloud sizes with one extra objective, on
// the generic distance path. Tracked in BENCH_optimize.json.
func BenchmarkAssignFitnessK3(b *testing.B) {
	cfg := Config{KNearest: 1, Normalize: true}
	for _, n := range []int{80, 200} {
		pts := kdimCloud(n, 3, randx.New(uint64(n)))
		b.Run(fmt.Sprintf("scratch/n=%d", n), func(b *testing.B) {
			s := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.AssignFitness(pts, cfg)
			}
		})
	}
}
