package optrr

import (
	"math"
	"testing"

	"optrr/internal/core"
)

func testProblem() Problem {
	return Problem{
		Prior:   []float64{0.35, 0.25, 0.2, 0.12, 0.08},
		Records: 5000,
		Delta:   0.8,
		Seed:    3,
		Advanced: &core.Config{
			PopulationSize: 16,
			ArchiveSize:    16,
			OmegaSize:      200,
			Generations:    80,
		},
	}
}

func TestOptimizeProducesSortedFront(t *testing.T) {
	res, err := Optimize(testProblem())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(res.Matrices()) != len(res.Front) {
		t.Fatal("matrices not aligned with front")
	}
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].Privacy < res.Front[i-1].Privacy {
			t.Fatal("front not sorted by privacy")
		}
	}
}

func TestOptimizeMatrixEvaluationsMatchFront(t *testing.T) {
	p := testProblem()
	res, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Matrices()
	for i, m := range ms {
		priv, err := Privacy(m, p.Prior)
		if err != nil {
			t.Fatal(err)
		}
		util, err := Utility(m, p.Prior, p.Records)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(priv-res.Front[i].Privacy) > 1e-9 || math.Abs(util-res.Front[i].Utility) > 1e-12 {
			t.Fatalf("matrix %d does not reproduce its front point", i)
		}
	}
}

func TestOptimizeRespectsBound(t *testing.T) {
	p := testProblem()
	res, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matrices() {
		mp, err := MaxPosterior(m, p.Prior)
		if err != nil {
			t.Fatal(err)
		}
		if mp > p.Delta+1e-9 {
			t.Fatalf("front matrix violates delta: %v", mp)
		}
	}
}

func TestMatrixWithPrivacyAtLeast(t *testing.T) {
	res, err := Optimize(testProblem())
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Front[len(res.Front)/2].Privacy
	m, ok := res.MatrixWithPrivacyAtLeast(mid)
	if !ok || m == nil {
		t.Fatal("no matrix at a privacy level inside the front range")
	}
	priv, err := Privacy(m, testProblem().Prior)
	if err != nil {
		t.Fatal(err)
	}
	if priv < mid-1e-9 {
		t.Fatalf("returned matrix has privacy %v < requested %v", priv, mid)
	}
	if _, ok := res.MatrixWithPrivacyAtLeast(0.99); ok {
		t.Fatal("privacy 0.99 should be unreachable")
	}
}

func TestMatrixWithUtilityAtMost(t *testing.T) {
	res, err := Optimize(testProblem())
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Front[len(res.Front)/2].Utility
	m, ok := res.MatrixWithUtilityAtMost(mid)
	if !ok || m == nil {
		t.Fatal("no matrix at a utility level inside the front range")
	}
	util, err := Utility(m, testProblem().Prior, testProblem().Records)
	if err != nil {
		t.Fatal(err)
	}
	if util > mid+1e-15 {
		t.Fatalf("returned matrix has utility %v > requested %v", util, mid)
	}
	if _, ok := res.MatrixWithUtilityAtMost(0); ok {
		t.Fatal("utility 0 should be unreachable")
	}
}

func TestOptimizeInfeasibleDelta(t *testing.T) {
	p := testProblem()
	p.Delta = 0.1
	if _, err := Optimize(p); err == nil {
		t.Fatal("delta below prior mode accepted")
	}
}

func TestOptimizeGenerationsOverride(t *testing.T) {
	p := testProblem()
	p.Generations = 10
	res, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 10 {
		t.Fatalf("generations = %d, want 10", res.Generations)
	}
}

func TestSchemesRoundTrip(t *testing.T) {
	// The facade re-exports must behave like the internals.
	w, err := Warner(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	up, err := UniformPerturbation(4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := FRAPP(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity(4)
	prior := []float64{0.4, 0.3, 0.2, 0.1}
	for _, m := range []*Matrix{w, up, fr, id} {
		if _, err := Evaluate(m, prior, 1000); err != nil {
			t.Fatal(err)
		}
	}
	priv, err := Privacy(id, prior)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(priv) > 1e-12 {
		t.Fatalf("identity privacy = %v, want 0", priv)
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	p, err := EmpiricalDistribution(3, []int{0, 1, 1, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("EmpiricalDistribution = %v", p)
		}
	}
	if _, err := EmpiricalDistribution(2, []int{0, 5}); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

func TestEndToEndDisguiseAndReconstruct(t *testing.T) {
	// The full user workflow: optimize, pick a matrix, disguise real
	// records, reconstruct the distribution.
	p := testProblem()
	res, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := res.MatrixWithPrivacyAtLeast(res.Front[0].Privacy)
	if !ok {
		t.Fatal("no matrix")
	}
	rng := NewRand(9)
	records := make([]int, 20000)
	cum := make([]float64, len(p.Prior))
	s := 0.0
	for i, v := range p.Prior {
		s += v
		cum[i] = s
	}
	for i := range records {
		u := rng.Float64()
		for k, c := range cum {
			if u <= c {
				records[i] = k
				break
			}
		}
	}
	disguised, err := m.Disguise(records, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateInversion(disguised)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Prior {
		if math.Abs(est[i]-p.Prior[i]) > 0.05 {
			t.Fatalf("reconstruction off at %d: %v vs %v", i, est[i], p.Prior[i])
		}
	}
}
