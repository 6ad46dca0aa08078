package optrr

import (
	"math"
	"testing"

	"optrr/internal/core"
	"optrr/internal/metrics"
	"optrr/internal/pareto"
)

// fakeResult builds a Result directly from points, with distinguishable
// (nil-keyed by index is enough) matrices so selectors can be identified.
func fakeResult(t *testing.T, extras []string, pts ...Point) (*Result, []*Matrix) {
	t.Helper()
	objs, err := resolveObjectives(extras)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*Matrix, len(pts))
	for i := range ms {
		ms[i] = Identity(2 + i) // distinct sizes make each matrix identifiable
	}
	return &Result{Front: pts, matrices: ms, objectives: objs}, ms
}

// TestMatrixSelectorsEmptyFront pins the empty-front contract of every
// selector: ok=false, no panic.
func TestMatrixSelectorsEmptyFront(t *testing.T) {
	res, _ := fakeResult(t, nil)
	if _, ok := res.MatrixWithPrivacyAtLeast(0); ok {
		t.Fatal("privacy selector matched on empty front")
	}
	if _, ok := res.MatrixWithUtilityAtMost(math.Inf(1)); ok {
		t.Fatal("utility selector matched on empty front")
	}
	if _, ok := res.MatrixBest("privacy", nil); ok {
		t.Fatal("MatrixBest matched on empty front")
	}
}

// TestMatrixSelectorsExactThreshold pins that thresholds are inclusive: a
// point exactly at the requested level qualifies.
func TestMatrixSelectorsExactThreshold(t *testing.T) {
	res, ms := fakeResult(t, nil,
		pareto.NewPoint(0.3, 1e-4),
		pareto.NewPoint(0.5, 2e-4),
		pareto.NewPoint(0.7, 8e-4),
	)
	m, ok := res.MatrixWithPrivacyAtLeast(0.5)
	if !ok || m != ms[1] {
		t.Fatalf("privacy ≥ 0.5: got %v ok=%v, want the exact-threshold point", m, ok)
	}
	m, ok = res.MatrixWithUtilityAtMost(2e-4)
	if !ok || m != ms[1] {
		t.Fatalf("utility ≤ 2e-4: got %v ok=%v, want the exact-threshold point", m, ok)
	}
	m, ok = res.MatrixBest("utility", map[string]float64{"privacy": 0.7})
	if !ok || m != ms[2] {
		t.Fatalf("MatrixBest exact threshold: got %v ok=%v", m, ok)
	}
}

// TestMatrixSelectorsAllFiltered pins ok=false when every point fails the
// threshold.
func TestMatrixSelectorsAllFiltered(t *testing.T) {
	res, _ := fakeResult(t, nil,
		pareto.NewPoint(0.3, 1e-4),
		pareto.NewPoint(0.5, 2e-4),
	)
	if _, ok := res.MatrixWithPrivacyAtLeast(0.9); ok {
		t.Fatal("unreachable privacy level matched")
	}
	if _, ok := res.MatrixWithUtilityAtMost(1e-5); ok {
		t.Fatal("unreachable utility level matched")
	}
	if _, ok := res.MatrixBest("utility", map[string]float64{"privacy": 0.9}); ok {
		t.Fatal("MatrixBest matched with unsatisfiable constraint")
	}
}

// TestMatrixBestGeneralized covers the k-dim selector: direction-aware
// best, multi-constraint filtering, alias resolution, NaN exclusion and
// unknown names.
func TestMatrixBestGeneralized(t *testing.T) {
	// Extra axis: ldp-epsilon (Minimize), stored canonically as-is.
	res, ms := fakeResult(t, []string{"ldp-epsilon"},
		pareto.NewPoint(0.3, 1e-4, 2.0),
		pareto.NewPoint(0.5, 2e-4, 1.2),
		pareto.NewPoint(0.7, 8e-4, 0.6),
	)

	// Best (minimum) epsilon unconstrained: the last point.
	m, ok := res.MatrixBest("ldp-epsilon", nil)
	if !ok || m != ms[2] {
		t.Fatalf("best epsilon: got %v ok=%v", m, ok)
	}
	// Alias resolves to the same axis.
	m, ok = res.MatrixBest("ldp", nil)
	if !ok || m != ms[2] {
		t.Fatalf("alias lookup: got %v ok=%v", m, ok)
	}
	// Max privacy subject to ε ≤ 1.2 and utility ≤ 2e-4: the middle point.
	m, ok = res.MatrixBest("privacy", map[string]float64{"ldp": 1.2, "utility": 2e-4})
	if !ok || m != ms[1] {
		t.Fatalf("constrained privacy: got %v ok=%v", m, ok)
	}
	// Unknown names fail closed, in both positions.
	if _, ok := res.MatrixBest("no-such", nil); ok {
		t.Fatal("unknown objective matched")
	}
	if _, ok := res.MatrixBest("privacy", map[string]float64{"no-such": 1}); ok {
		t.Fatal("unknown constraint matched")
	}

	// NaN values never qualify, as best or under constraints.
	res, ms = fakeResult(t, []string{"ldp-epsilon"},
		pareto.NewPoint(0.3, 1e-4, math.NaN()),
		pareto.NewPoint(0.5, 2e-4, 1.0),
	)
	m, ok = res.MatrixBest("ldp-epsilon", nil)
	if !ok || m != ms[1] {
		t.Fatalf("NaN as best candidate: got %v ok=%v", m, ok)
	}
	m, ok = res.MatrixBest("privacy", map[string]float64{"ldp-epsilon": 5})
	if !ok || m != ms[1] {
		t.Fatalf("NaN under constraint: got %v ok=%v", m, ok)
	}
}

// TestObjectiveValuesOrientation checks name listing and the raw (natural
// orientation) read-back, including un-negation of Maximize extras.
func TestObjectiveValuesOrientation(t *testing.T) {
	if err := RegisterObjective(NewObjective("t-gain", Maximize,
		func(*metrics.Workspace, *Matrix, []float64, int) (float64, error) { return 0, nil })); err != nil {
		t.Fatal(err)
	}
	// Canonical storage negates Maximize values: raw 0.8 is stored -0.8.
	res, _ := fakeResult(t, []string{"t-gain"},
		pareto.NewPoint(0.3, 1e-4, -0.8),
		pareto.NewPoint(0.5, 2e-4, -0.2),
	)
	names := res.Objectives()
	want := []string{"privacy", "utility", "t-gain"}
	if len(names) != len(want) {
		t.Fatalf("Objectives() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Objectives() = %v, want %v", names, want)
		}
	}
	vals, ok := res.ObjectiveValues("t-gain")
	if !ok || vals[0] != 0.8 || vals[1] != 0.2 {
		t.Fatalf("ObjectiveValues(t-gain) = %v ok=%v, want [0.8 0.2]", vals, ok)
	}
	vals, ok = res.ObjectiveValues("privacy")
	if !ok || vals[0] != 0.3 || vals[1] != 0.5 {
		t.Fatalf("ObjectiveValues(privacy) = %v ok=%v", vals, ok)
	}
	if _, ok := res.ObjectiveValues("no-such"); ok {
		t.Fatal("unknown objective resolved")
	}
	// Maximize constraint semantics: ≥ threshold on the raw value.
	if _, ok := res.MatrixBest("utility", map[string]float64{"t-gain": 0.5}); !ok {
		t.Fatal("gain ≥ 0.5 should match the first point")
	}
	if _, ok := res.MatrixBest("utility", map[string]float64{"t-gain": 0.9}); ok {
		t.Fatal("gain ≥ 0.9 should match nothing")
	}
}

// TestOptimizeTriObjectiveEndToEnd drives the public API with extra
// objectives: Problem.ExtraObjectives (with an alias), a 3-D front, and
// name-addressed accessors over a real run.
func TestOptimizeTriObjectiveEndToEnd(t *testing.T) {
	res, err := Optimize(Problem{
		Prior:       []float64{0.5, 0.3, 0.2},
		Records:     10000,
		Delta:       0.75,
		Seed:        3,
		Generations: 20,
		Advanced: &core.Config{
			PopulationSize: 16,
			ArchiveSize:    16,
			OmegaSize:      200,
		},
		ExtraObjectives: []string{"ldp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for i, p := range res.Front {
		if p.Dim() != 3 {
			t.Fatalf("front[%d]: dim %d, want 3", i, p.Dim())
		}
	}
	eps, ok := res.ObjectiveValues("ldp-epsilon")
	if !ok || len(eps) != len(res.Front) {
		t.Fatalf("ObjectiveValues: ok=%v len=%d", ok, len(eps))
	}
	for i, e := range eps {
		if math.IsNaN(e) || e < 0 || e > metrics.LDPEpsilonCap {
			t.Fatalf("front[%d]: epsilon %v", i, e)
		}
	}
	if m, ok := res.MatrixBest("ldp-epsilon", map[string]float64{"privacy": res.Front[0].Privacy}); !ok || m == nil {
		t.Fatal("MatrixBest over a live run failed")
	}
	if _, err := Optimize(Problem{
		Prior: []float64{0.5, 0.5}, Records: 100, Delta: 0.9,
		ExtraObjectives: []string{"definitely-not-registered"},
	}); err == nil {
		t.Fatal("unknown objective name accepted")
	}
}
