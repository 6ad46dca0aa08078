package emoo

import (
	"math"
	"testing"
	"testing/quick"

	"optrr/internal/pareto"
	"optrr/internal/randx"
)

var testCfg = Config{KNearest: 1, Normalize: true}

func TestAssignFitnessEmpty(t *testing.T) {
	f := AssignFitness(nil, testCfg)
	if len(f.Value) != 0 {
		t.Fatalf("fitness for empty set has %d values", len(f.Value))
	}
}

func TestAssignFitnessSingle(t *testing.T) {
	f := AssignFitness([]pareto.Point{{Privacy: 0.5, Utility: 0.1}}, testCfg)
	if f.Strength[0] != 0 || f.Raw[0] != 0 {
		t.Fatalf("lone point: strength %d raw %v, want 0 0", f.Strength[0], f.Raw[0])
	}
	if f.Value[0] >= 1 {
		t.Fatalf("lone point fitness %v, want < 1 (non-dominated)", f.Value[0])
	}
}

func TestAssignFitnessStrengthAndRaw(t *testing.T) {
	// a dominates b and c; b dominates c.
	pts := []pareto.Point{
		{Privacy: 0.9, Utility: 0.1}, // a
		{Privacy: 0.5, Utility: 0.2}, // b
		{Privacy: 0.4, Utility: 0.3}, // c
	}
	f := AssignFitness(pts, testCfg)
	if f.Strength[0] != 2 || f.Strength[1] != 1 || f.Strength[2] != 0 {
		t.Fatalf("strengths = %v, want [2 1 0]", f.Strength)
	}
	if f.Raw[0] != 0 {
		t.Fatalf("raw[a] = %v, want 0", f.Raw[0])
	}
	if f.Raw[1] != 2 { // dominated by a (strength 2)
		t.Fatalf("raw[b] = %v, want 2", f.Raw[1])
	}
	if f.Raw[2] != 3 { // dominated by a (2) and b (1)
		t.Fatalf("raw[c] = %v, want 3", f.Raw[2])
	}
}

func TestAssignFitnessNonDominatedBelowOne(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		r := randx.New(seed)
		pts := make([]pareto.Point, n)
		for i := range pts {
			pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
		}
		fit := AssignFitness(pts, testCfg)
		frontIdx := pareto.Front(pts)
		inFront := make(map[int]bool)
		for _, i := range frontIdx {
			inFront[i] = true
		}
		for i := range pts {
			if inFront[i] && fit.Value[i] >= 1 {
				return false // non-dominated must have fitness < 1
			}
			if !inFront[i] && fit.Value[i] < 1 {
				return false // dominated must have fitness >= 1
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDensityDiscriminatesCrowding(t *testing.T) {
	// Figure 2 of the paper: three non-dominated points (utility rises with
	// privacy, so none dominates another), and the one closest to its
	// nearest neighbour has the worse (higher) fitness.
	pts := []pareto.Point{
		{Privacy: 0.10, Utility: 0.10},
		{Privacy: 0.12, Utility: 0.11}, // crowds the first
		{Privacy: 0.90, Utility: 0.90},
	}
	f := AssignFitness(pts, testCfg)
	if !(f.Value[0] > f.Value[2] && f.Value[1] > f.Value[2]) {
		t.Fatalf("crowded points should have worse fitness: %v", f.Value)
	}
	for _, v := range f.Density {
		if v <= 0 || v > 0.5 {
			t.Fatalf("density %v outside (0, 0.5]", v)
		}
	}
}

func TestDensityNeverFlipsDominance(t *testing.T) {
	// The +2 in the density denominator guarantees density < 1, so a
	// dominated individual can never beat a non-dominated one on fitness.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		r := randx.New(seed)
		pts := make([]pareto.Point, n)
		for i := range pts {
			pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
		}
		fit := AssignFitness(pts, testCfg)
		for i := range pts {
			for j := range pts {
				if fit.Raw[i] < fit.Raw[j] && fit.Value[i] >= fit.Value[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEnvironmentExactFit(t *testing.T) {
	pts := []pareto.Point{
		{Privacy: 0.9, Utility: 0.1},
		{Privacy: 0.1, Utility: 0.05},
		{Privacy: 0.5, Utility: 0.5}, // dominated by {0.9, 0.1}
	}
	fit := AssignFitness(pts, testCfg)
	sel, err := SelectEnvironment(pts, fit, 2, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
}

func TestSelectEnvironmentFillsWithBestDominated(t *testing.T) {
	pts := []pareto.Point{
		{Privacy: 0.9, Utility: 0.1},   // non-dominated
		{Privacy: 0.8, Utility: 0.2},   // dominated once
		{Privacy: 0.1, Utility: 0.9},   // dominated twice over? dominated by both above
		{Privacy: 0.85, Utility: 0.15}, // dominated once
	}
	fit := AssignFitness(pts, testCfg)
	sel, err := SelectEnvironment(pts, fit, 3, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	// The worst point (index 2) must be the one left out.
	for _, i := range sel {
		if i == 2 {
			t.Fatalf("selection %v kept the worst individual", sel)
		}
	}
}

func TestSelectEnvironmentTruncationPreservesExtremes(t *testing.T) {
	// Five mutually non-dominated points (utility rises with privacy);
	// capacity 3. Truncation should drop crowding duplicates, keeping one
	// representative of each crowded pair and the far extreme.
	pts := []pareto.Point{
		{Privacy: 0.1, Utility: 0.10},
		{Privacy: 0.12, Utility: 0.12}, // crowds the first
		{Privacy: 0.5, Utility: 0.30},
		{Privacy: 0.52, Utility: 0.31}, // crowds the third
		{Privacy: 0.9, Utility: 0.50},
	}
	fit := AssignFitness(pts, testCfg)
	sel, err := SelectEnvironment(pts, fit, 3, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	hasFirstPair, hasSecondPair, hasLast := false, false, false
	for _, i := range sel {
		switch i {
		case 0, 1:
			hasFirstPair = true
		case 2, 3:
			hasSecondPair = true
		case 4:
			hasLast = true
		}
	}
	if !hasFirstPair || !hasSecondPair || !hasLast {
		t.Fatalf("truncation collapsed a region of the front: %v", sel)
	}
}

func TestSelectEnvironmentCapacityValidation(t *testing.T) {
	pts := []pareto.Point{{Privacy: 1, Utility: 1}}
	fit := AssignFitness(pts, testCfg)
	if _, err := SelectEnvironment(pts, fit, 0, testCfg); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := SelectEnvironment(pts, Fitness{}, 1, testCfg); err == nil {
		t.Fatal("mismatched fitness accepted")
	}
}

func TestSelectEnvironmentFewerPointsThanCapacity(t *testing.T) {
	pts := []pareto.Point{{Privacy: 0.5, Utility: 0.5}, {Privacy: 0.6, Utility: 0.6}}
	fit := AssignFitness(pts, testCfg)
	sel, err := SelectEnvironment(pts, fit, 10, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d, want all 2", len(sel))
	}
}

// TestSelectEnvironmentNeverDropsNonDominatedWhenRoom is a DESIGN.md
// invariant: while the archive has room, every non-dominated individual
// survives environmental selection.
func TestSelectEnvironmentNeverDropsNonDominatedWhenRoom(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		r := randx.New(seed)
		pts := make([]pareto.Point, n)
		for i := range pts {
			pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
		}
		fit := AssignFitness(pts, testCfg)
		frontIdx := pareto.Front(pts)
		capacity := len(frontIdx) + 2 // room for every non-dominated point
		sel, err := SelectEnvironment(pts, fit, capacity, testCfg)
		if err != nil {
			return false
		}
		selSet := make(map[int]bool, len(sel))
		for _, i := range sel {
			selSet[i] = true
		}
		for _, i := range frontIdx {
			if !selSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEnvironmentRespectsCapacity(t *testing.T) {
	f := func(seed uint64, nRaw, capRaw uint8) bool {
		n := int(nRaw%30) + 1
		capacity := int(capRaw%10) + 1
		r := randx.New(seed)
		pts := make([]pareto.Point, n)
		for i := range pts {
			pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
		}
		fit := AssignFitness(pts, testCfg)
		sel, err := SelectEnvironment(pts, fit, capacity, testCfg)
		if err != nil {
			return false
		}
		if len(sel) > capacity {
			return false
		}
		// No duplicates.
		seen := make(map[int]bool)
		for _, i := range sel {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		// If there were at least `capacity` points, selection fills up.
		return n < capacity || len(sel) == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTournamentPrefersBetter(t *testing.T) {
	fit := Fitness{Value: []float64{5, 0.2, 3}}
	r := randx.New(1)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[BinaryTournament(fit, r)]++
	}
	// Index 1 (best) should win far more often than the others.
	if !(counts[1] > counts[0] && counts[1] > counts[2]) {
		t.Fatalf("tournament counts = %v, best index should dominate", counts)
	}
	// Expected share for the best of 3 under binary tournament: it is
	// selected whenever drawn at all: 1 - (2/3)^2 = 5/9.
	got := float64(counts[1]) / 30000
	if math.Abs(got-5.0/9.0) > 0.02 {
		t.Fatalf("best selected %v of the time, want approx 5/9", got)
	}
}

func TestBinaryTournamentPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty set")
		}
	}()
	BinaryTournament(Fitness{}, randx.New(1))
}

func TestNormalizationMattersForScaleImbalance(t *testing.T) {
	// Objectives on wildly different scales (privacy ~1, utility ~1e-4,
	// like the paper's). Without normalization the density estimate
	// collapses onto the privacy axis; with it, points separated only in
	// utility still register as far apart.
	pts := []pareto.Point{
		{Privacy: 0.5, Utility: 1e-4},
		{Privacy: 0.5, Utility: 9e-4},
		{Privacy: 0.500001, Utility: 5e-4},
	}
	raw := AssignFitness(pts, Config{KNearest: 1, Normalize: false})
	norm := AssignFitness(pts, Config{KNearest: 1, Normalize: true})
	// Unnormalized: all pairwise distances are ~0, so densities are ~0.5.
	for _, d := range raw.Density {
		if math.Abs(d-0.5) > 0.01 {
			t.Fatalf("unnormalized density = %v, expected near 0.5", raw.Density)
		}
	}
	// Normalized: the two utility extremes are far apart.
	if norm.Density[0] > 0.45 || norm.Density[1] > 0.45 {
		t.Fatalf("normalized density did not separate points: %v", norm.Density)
	}
}

func BenchmarkAssignFitness80(b *testing.B) {
	r := randx.New(1)
	pts := make([]pareto.Point, 80)
	for i := range pts {
		pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AssignFitness(pts, testCfg)
	}
}

func BenchmarkSelectEnvironment80(b *testing.B) {
	r := randx.New(1)
	pts := make([]pareto.Point, 80)
	for i := range pts {
		pts[i] = pareto.Point{Privacy: r.Float64(), Utility: r.Float64()}
	}
	fit := AssignFitness(pts, testCfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectEnvironment(pts, fit, 40, testCfg); err != nil {
			b.Fatal(err)
		}
	}
}
