package emoo

import (
	"math"
	"sort"
	"testing"

	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// This file pins the scratch-based SPEA2 operators to the historical
// allocation-heavy implementation, preserved below verbatim. The optimizer's
// reproducibility guarantee (same seed → same front, across releases) relies
// on the rewrite being bit-for-bit identical, so every comparison here is
// exact equality, not tolerance-based.

// refAssignFitness is the pre-scratch AssignFitness, verbatim except that
// points with more than two objectives take the per-axis reference distance.
func refAssignFitness(pts []pareto.Point, cfg Config) Fitness {
	n := len(pts)
	f := Fitness{
		Strength: make([]int, n),
		Raw:      make([]float64, n),
		Density:  make([]float64, n),
		Value:    make([]float64, n),
	}
	if n == 0 {
		return f
	}
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			if i != j && pts[i].Dominates(pts[j]) {
				dom[i][j] = true
				f.Strength[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if dom[j][i] {
				f.Raw[i] += float64(f.Strength[j])
			}
		}
	}
	d := refDistances(pts, cfg)
	k := cfg.k()
	if k > n-1 {
		k = n - 1
	}
	buf := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for j := 0; j < n; j++ {
			if j != i {
				buf = append(buf, d[i][j])
			}
		}
		var sigma float64
		if len(buf) > 0 {
			sort.Float64s(buf)
			sigma = buf[k-1]
		}
		f.Density[i] = 1 / (sigma + 2)
		f.Value[i] = f.Raw[i] + f.Density[i]
	}
	return f
}

// refDistanceMatrix is the pre-scratch distanceMatrix, verbatim.
func refDistanceMatrix(pts []pareto.Point, cfg Config) [][]float64 {
	n := len(pts)
	scaleP, scaleU := 1.0, 1.0
	if cfg.Normalize && n > 1 {
		minP, maxP := pts[0].Privacy, pts[0].Privacy
		minU, maxU := pts[0].Utility, pts[0].Utility
		for _, p := range pts[1:] {
			minP = math.Min(minP, p.Privacy)
			maxP = math.Max(maxP, p.Privacy)
			minU = math.Min(minU, p.Utility)
			maxU = math.Max(maxU, p.Utility)
		}
		if r := maxP - minP; r > 0 {
			scaleP = 1 / r
		}
		if r := maxU - minU; r > 0 {
			scaleU = 1 / r
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dp := (pts[i].Privacy - pts[j].Privacy) * scaleP
			du := (pts[i].Utility - pts[j].Utility) * scaleU
			dist := math.Sqrt(dp*dp + du*du)
			d[i][j] = dist
			d[j][i] = dist
		}
	}
	return d
}

// refDistances picks the reference distance matrix for a non-empty point
// set: the historical two-objective code, or the per-axis reference when the
// points carry extra objectives.
func refDistances(pts []pareto.Point, cfg Config) [][]float64 {
	if pts[0].Dim() > 2 {
		return refDistanceMatrixK(pts, cfg)
	}
	return refDistanceMatrix(pts, cfg)
}

// refDistanceMatrixK is the reference distance for three or more objectives,
// written independently of the scratch kernels: every objective is scaled by
// 1/range over pts (1 when normalization is off, when there is a single
// point, or when the range is not positive), and a pair's distance is one
// square root of its scaled differences' squares summed in axis order.
func refDistanceMatrixK(pts []pareto.Point, cfg Config) [][]float64 {
	n := len(pts)
	scales := make([]float64, pts[0].Dim())
	for t := range scales {
		scales[t] = 1
		if !cfg.Normalize || n < 2 {
			continue
		}
		lo, hi := pts[0].At(t), pts[0].At(t)
		for _, p := range pts[1:] {
			lo = math.Min(lo, p.At(t))
			hi = math.Max(hi, p.At(t))
		}
		if r := hi - lo; r > 0 {
			scales[t] = 1 / r
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var sum float64
			for t, sc := range scales {
				diff := (pts[i].At(t) - pts[j].At(t)) * sc
				sum += diff * diff
			}
			d[i][j] = math.Sqrt(sum)
			d[j][i] = d[i][j]
		}
	}
	return d
}

// refSelectEnvironment is the pre-scratch SelectEnvironment, verbatim.
func refSelectEnvironment(pts []pareto.Point, fit Fitness, capacity int, cfg Config) ([]int, error) {
	if capacity <= 0 {
		return nil, nil
	}
	var next []int
	for i, v := range fit.Value {
		if v < 1 {
			next = append(next, i)
		}
	}
	switch {
	case len(next) == capacity:
		return next, nil
	case len(next) < capacity:
		var rest []int
		for i, v := range fit.Value {
			if v >= 1 {
				rest = append(rest, i)
			}
		}
		sort.Slice(rest, func(a, b int) bool { return fit.Value[rest[a]] < fit.Value[rest[b]] })
		need := capacity - len(next)
		if need > len(rest) {
			need = len(rest)
		}
		return append(next, rest[:need]...), nil
	default:
		return refTruncate(pts, next, capacity, cfg), nil
	}
}

// refTruncate is the pre-scratch truncate, verbatim except for the same
// per-axis distance above two objectives: it rebuilds the distance matrix and
// re-sorts every distance vector per removal.
func refTruncate(pts []pareto.Point, selected []int, capacity int, cfg Config) []int {
	live := append([]int(nil), selected...)
	for len(live) > capacity {
		sub := make([]pareto.Point, len(live))
		for k, idx := range live {
			sub[k] = pts[idx]
		}
		d := refDistances(sub, cfg)
		vecs := make([][]float64, len(live))
		for i := range live {
			v := make([]float64, 0, len(live)-1)
			for j := range live {
				if j != i {
					v = append(v, d[i][j])
				}
			}
			sort.Float64s(v)
			vecs[i] = v
		}
		victim := 0
		for i := 1; i < len(live); i++ {
			if lexLess(vecs[i], vecs[victim]) {
				victim = i
			}
		}
		live = append(live[:victim], live[victim+1:]...)
	}
	return live
}

// randomClouds yields point sets that exercise the operators: uniform
// clouds, tight clusters with exact duplicates (zero distances and
// lexicographic ties), and degenerate collinear sets (zero objective range).
func randomClouds(r *randx.Source, count int) [][]pareto.Point {
	var clouds [][]pareto.Point
	for c := 0; c < count; c++ {
		n := 2 + r.Intn(70)
		pts := make([]pareto.Point, n)
		switch c % 3 {
		case 0: // uniform, wildly different objective scales
			for i := range pts {
				pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64() * 1e-4}
			}
		case 1: // clusters with duplicates
			for i := range pts {
				base := pareto.Point{Privacy: float64(r.Intn(4)) * 0.2, Utility: float64(r.Intn(4)) * 1e-5}
				if r.Float64() < 0.5 {
					base.Privacy += r.Float64() * 1e-9
				}
				pts[i] = base
			}
		default: // collinear: zero utility range
			for i := range pts {
				pts[i] = pareto.Point{Privacy: r.Float64(), Utility: 0.5}
			}
		}
		clouds = append(clouds, pts)
	}
	return clouds
}

// randomCloudsK is randomClouds for three to six objectives: uniform clouds
// whose extra objectives sit on scales orders of magnitude apart, clusters
// with exact duplicates, and clouds whose first extra objective is constant
// (zero range).
func randomCloudsK(r *randx.Source, count int) [][]pareto.Point {
	var clouds [][]pareto.Point
	for c := 0; c < count; c++ {
		n := 2 + r.Intn(70)
		extras := make([]float64, 1+r.Intn(pareto.MaxExtraObjectives))
		pts := make([]pareto.Point, n)
		for i := range pts {
			switch c % 3 {
			case 0: // uniform, wildly different objective scales
				for t := range extras {
					extras[t] = r.Float64() * math.Pow(10, float64(t))
				}
				pts[i] = pareto.NewPoint(r.Float64(), r.Float64()*1e-4, extras...)
			case 1: // clusters with duplicates
				for t := range extras {
					extras[t] = float64(r.Intn(2)) * 0.5
				}
				privacy := float64(r.Intn(4)) * 0.2
				if r.Float64() < 0.5 {
					privacy += r.Float64() * 1e-9
				}
				pts[i] = pareto.NewPoint(privacy, float64(r.Intn(4))*1e-5, extras...)
			default: // constant first extra objective
				for t := range extras {
					extras[t] = r.Float64()
				}
				extras[0] = 0.5
				pts[i] = pareto.NewPoint(r.Float64(), r.Float64()*1e-4, extras...)
			}
		}
		clouds = append(clouds, pts)
	}
	return clouds
}

// configsUnderTest varies the density estimate and normalization; every
// configuration is checked for exact equality against the reference
// arithmetic.
func configsUnderTest() []Config {
	return []Config{
		{KNearest: 1, Normalize: true},
		{KNearest: 1, Normalize: false},
		{KNearest: 2, Normalize: true},
		{KNearest: 3, Normalize: false},
		{KNearest: 7, Normalize: true},
	}
}

func TestScratchAssignFitnessMatchesReference(t *testing.T) {
	r := randx.New(11)
	s := NewScratch()
	for _, pts := range append(randomClouds(r, 60), randomCloudsK(r, 30)...) {
		for _, cfg := range configsUnderTest() {
			want := refAssignFitness(pts, cfg)
			got := s.AssignFitness(pts, cfg)
			if len(got.Value) != len(want.Value) {
				t.Fatalf("fitness length %d, want %d", len(got.Value), len(want.Value))
			}
			for i := range want.Value {
				if got.Strength[i] != want.Strength[i] {
					t.Fatalf("cfg %+v: Strength[%d] = %d, want %d", cfg, i, got.Strength[i], want.Strength[i])
				}
				if got.Raw[i] != want.Raw[i] {
					t.Fatalf("cfg %+v: Raw[%d] = %v, want %v", cfg, i, got.Raw[i], want.Raw[i])
				}
				if got.Density[i] != want.Density[i] {
					t.Fatalf("cfg %+v: Density[%d] = %.17g, want %.17g", cfg, i, got.Density[i], want.Density[i])
				}
				if got.Value[i] != want.Value[i] {
					t.Fatalf("cfg %+v: Value[%d] = %.17g, want %.17g", cfg, i, got.Value[i], want.Value[i])
				}
			}
		}
	}
}

func TestScratchSelectEnvironmentMatchesReference(t *testing.T) {
	r := randx.New(13)
	s := NewScratch()
	for _, pts := range append(randomClouds(r, 60), randomCloudsK(r, 30)...) {
		for _, cfg := range configsUnderTest() {
			fit := refAssignFitness(pts, cfg)
			for _, capacity := range []int{1, 2, len(pts) / 2, len(pts) - 1, len(pts), len(pts) + 5} {
				if capacity <= 0 {
					continue
				}
				want, err := refSelectEnvironment(pts, fit, capacity, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.SelectEnvironment(pts, fit, capacity, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cfg %+v cap %d: selected %d, want %d", cfg, capacity, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cfg %+v cap %d: selection[%d] = %d, want %d\ngot  %v\nwant %v",
							cfg, capacity, i, got[i], want[i], got, want)
					}
				}
			}
		}
	}
}

func TestKthSmallestMatchesSort(t *testing.T) {
	r := randx.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = math.Floor(r.Float64()*8) / 8 // force duplicates
		}
		sorted := append([]float64(nil), buf...)
		sort.Float64s(sorted)
		for k := 1; k <= n; k++ {
			scratch := append([]float64(nil), buf...)
			if got := kthSmallest(scratch, k); got != sorted[k-1] {
				t.Fatalf("kthSmallest(%v, %d) = %v, want %v", buf, k, got, sorted[k-1])
			}
		}
	}
}
