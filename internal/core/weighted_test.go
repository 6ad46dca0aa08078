package core

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/pareto"
)

func quickWeighted() WeightedSumConfig {
	return WeightedSumConfig{
		Prior:          testPrior(),
		Records:        5000,
		Delta:          0.8,
		Weights:        5,
		PopulationSize: 10,
		Generations:    20,
		Seed:           4,
	}
}

func TestWeightedSumValidate(t *testing.T) {
	cfg := quickWeighted()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Delta = 0.1
	if err := cfg.Validate(); !errors.Is(err, ErrInfeasibleBound) {
		t.Fatalf("err = %v", err)
	}
	cfg = quickWeighted()
	cfg.Records = 0
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	// NaN fails every comparison, so it must be refused as a bad delta
	// before the sweep, not found infeasible after it.
	cfg = quickWeighted()
	cfg.Delta = math.NaN()
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NaN delta: err = %v", err)
	}
	if _, err := OptimizeWeightedSum(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NaN delta: OptimizeWeightedSum err = %v", err)
	}
}

// TestWeightedSumRejectsBadSizes: a negative sweep size, or a single weight
// (whose w would be 0/0), is rejected by Validate and by OptimizeWeightedSum
// before the sweep starts.
func TestWeightedSumRejectsBadSizes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*WeightedSumConfig)
	}{
		{"negative population", func(c *WeightedSumConfig) { c.PopulationSize = -3 }},
		{"negative generations", func(c *WeightedSumConfig) { c.Generations = -1 }},
		{"negative weights", func(c *WeightedSumConfig) { c.Weights = -2 }},
		{"one weight", func(c *WeightedSumConfig) { c.Weights = 1 }},
	}
	for _, c := range cases {
		cfg := quickWeighted()
		c.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate err = %v, want ErrBadConfig", c.name, err)
		}
		if _, err := OptimizeWeightedSum(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: OptimizeWeightedSum err = %v, want ErrBadConfig", c.name, err)
		}
	}
}

func TestWeightedSumProducesFeasibleFront(t *testing.T) {
	res, err := OptimizeWeightedSum(quickWeighted())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty weighted-sum front")
	}
	prior := testPrior()
	for _, ind := range res.Front {
		if !ind.Genome.Valid() {
			t.Fatal("invalid genome on front")
		}
		m, err := ind.Genome.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := metrics.MaxPosterior(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if mp > 0.8+1e-9 {
			t.Fatalf("bound violated: %v", mp)
		}
	}
	// Union front is mutually non-dominated.
	pts := res.FrontPoints()
	for i := range pts {
		for j := range pts {
			if i != j && pts[i].Dominates(pts[j]) {
				t.Fatal("weighted-sum front not mutually non-dominated")
			}
		}
	}
}

func TestWeightedSumDeterministic(t *testing.T) {
	a, err := OptimizeWeightedSum(quickWeighted())
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeWeightedSum(quickWeighted())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.FrontPoints(), b.FrontPoints()
	if len(pa) != len(pb) {
		t.Fatalf("front sizes differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("weighted-sum runs differ under the same seed")
		}
	}
}

// TestWeightedSumInferiorToEMO reproduces the paper's Section V argument at
// test scale: at a matched evaluation budget the EMO front covers a large
// share of the weighted-sum front while the reverse coverage stays small —
// even though the weighted-sum front is built from the union of every
// individual the baseline ever evaluated (the most generous accounting).
func TestWeightedSumInferiorToEMO(t *testing.T) {
	ws := quickWeighted()
	ws.Weights = 11
	ws.PopulationSize = 16
	ws.Generations = 60
	wsRes, err := OptimizeWeightedSum(ws)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickConfig()
	cfg.Generations = wsRes.Evaluations / cfg.PopulationSize // match budgets
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emoRes, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}

	ef, wf := emoRes.FrontPoints(), wsRes.FrontPoints()
	covEW := pareto.Coverage(ef, wf)
	covWE := pareto.Coverage(wf, ef)
	if covEW < 0.3 {
		t.Fatalf("EMO covers only %.2f of the weighted-sum front", covEW)
	}
	if covWE > 0.2 {
		t.Fatalf("weighted sum covers %.2f of the EMO front; expected a clear asymmetry (EMO covers %.2f)", covWE, covEW)
	}
}
