package core

import (
	"context"
	"fmt"
	"math"

	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// The weighted-sum baseline. Section V of the paper motivates evolutionary
// multi-objective optimization by rejecting the obvious alternative —
// collapsing privacy and utility into one scalar fitness — citing Das &
// Dennis: a weighted sum cannot generate the concave parts of a Pareto
// front no matter how the weights are swept, and tends to cluster solutions
// at the front's extremes. This file implements that baseline faithfully (a
// plain single-objective GA per weight, sharing the RR genome, operators and
// repair with the real optimizer) so the abl-weighted-sum experiment can
// demonstrate the deficiency on this problem.

// WeightedSumConfig parameterizes the baseline.
type WeightedSumConfig struct {
	// Prior, Records, Delta as in Config. Required.
	Prior   []float64
	Records int
	Delta   float64

	// Weights is the number of weight values w swept evenly across [0, 1];
	// zero means 21. One is rejected: a sweep needs both ends.
	Weights int
	// PopulationSize per weight; zero means 30.
	PopulationSize int
	// Generations per weight; zero means 100.
	Generations int
	// Seed drives all randomness.
	Seed uint64
	// Context, if non-nil, is checked once per generation; cancellation
	// stops the sweep and returns the Pareto front of everything evaluated
	// so far together with an error wrapping ctx.Err().
	Context context.Context
}

func (c WeightedSumConfig) withDefaults() WeightedSumConfig {
	if c.Weights == 0 {
		c.Weights = 21
	}
	if c.PopulationSize == 0 {
		c.PopulationSize = 30
	}
	if c.Generations == 0 {
		c.Generations = 100
	}
	return c
}

// singleConfig is the one-worker single-attribute configuration whose
// problem definition realizes the baseline's genomes.
func (c WeightedSumConfig) singleConfig() Config {
	return Config{Prior: c.Prior, Records: c.Records, Delta: c.Delta, Workers: 1}
}

// Validate checks the configuration: the problem as Config.Validate does,
// and the sweep's own sizes.
func (c WeightedSumConfig) Validate() error {
	if err := c.singleConfig().Validate(); err != nil {
		return err
	}
	if c.Weights == 1 {
		return fmt.Errorf("%w: one weight cannot sweep [0, 1]", ErrBadConfig)
	}
	return validateSizes(c.Weights, c.PopulationSize, c.Generations)
}

// OptimizeWeightedSum sweeps the weight w evenly across [0, 1]; for each w a
// single-objective GA minimizes
//
//	f(M) = w·(Utility(M)/uRef) + (1−w)·(1 − Privacy(M)),
//
// with uRef a fixed utility normalizer so both terms share a scale. Every
// individual ever evaluated feasibly is collected and the Pareto front of the
// union is returned, making the comparison against the EMO as generous to
// the baseline as possible. The returned Result mirrors Run's.
func OptimizeWeightedSum(cfg WeightedSumConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	single, err := New(cfg.singleConfig())
	if err != nil {
		return Result{}, err
	}
	if err := ctxErr(cfg.Context); err != nil {
		return Result{}, cancelError(0, err)
	}
	cfg = cfg.withDefaults()
	rng := randx.New(cfg.Seed)
	n := len(cfg.Prior)

	uRef := weightedReferenceUtility(cfg)
	evaluations := 0

	// Genomes are repaired and evaluated exactly as in the EMO, on the
	// single-attribute problem's one worker: the sweep is sequential.
	evaluate := func(g Genome) (Individual, bool) {
		evaluations++
		ind, c := single.realizeGenome(g, 0)
		return ind, c.ok
	}
	scalar := func(ind Individual, w float64) float64 {
		return w*(ind.Eval.Utility/uRef) + (1-w)*(1-ind.Eval.Privacy)
	}

	var all []Individual
	const maxRedraws = 10000
	redraws := 0
	fresh := func() (Individual, error) {
		for {
			ind, ok := evaluate(NewRandomGenome(n, rng))
			if ok {
				return ind, nil
			}
			if redraws++; redraws > maxRedraws {
				return Individual{}, fmt.Errorf("%w: delta=%v", ErrInfeasibleBound, cfg.Delta)
			}
		}
	}

	generations := 0
	var cancelErr error
sweep:
	for wi := 0; wi < cfg.Weights; wi++ {
		w := float64(wi) / float64(cfg.Weights-1)
		pop := make([]Individual, cfg.PopulationSize)
		for i := range pop {
			ind, err := fresh()
			if err != nil {
				return Result{}, err
			}
			pop[i] = ind
		}
		for gen := 0; gen < cfg.Generations; gen++ {
			if err := ctxErr(cfg.Context); err != nil {
				// Keep what the sweep has already evaluated: the union
				// front below is built from `all`, so the partial result
				// is as generous as the completed portion allows.
				all = append(all, pop...)
				cancelErr = cancelError(generations, err)
				break sweep
			}
			generations++
			// Binary-tournament parents on the scalar fitness.
			pick := func() Individual {
				a := pop[rng.Intn(len(pop))]
				b := pop[rng.Intn(len(pop))]
				if scalar(b, w) < scalar(a, w) {
					return b
				}
				return a
			}
			next := make([]Individual, 0, cfg.PopulationSize)
			// Elitism: carry the best individual over.
			best := 0
			for i := 1; i < len(pop); i++ {
				if scalar(pop[i], w) < scalar(pop[best], w) {
					best = i
				}
			}
			next = append(next, pop[best])
			for len(next) < cfg.PopulationSize {
				c1, c2, err := Crossover(pick().Genome, pick().Genome, rng)
				if err != nil {
					return Result{}, err
				}
				for _, child := range []Genome{c1, c2} {
					if len(next) >= cfg.PopulationSize {
						break
					}
					if rng.Float64() < mutationRate {
						Mutate(child, MutationProportional, 1, rng)
					}
					ind, ok := evaluate(child)
					if !ok {
						var err error
						ind, err = fresh()
						if err != nil {
							return Result{}, err
						}
					}
					next = append(next, ind)
				}
			}
			pop = next
		}
		all = append(all, pop...)
	}

	pts := make([]pareto.Point, len(all))
	for i, ind := range all {
		pts[i] = ind.Point()
	}
	idx := pareto.Front(pts)
	front := make([]Individual, 0, len(idx))
	for _, i := range idx {
		front = append(front, Individual{Genome: all[i].Genome.Clone(), Eval: all[i].Eval})
	}
	return Result{
		Front:       front,
		Generations: generations,
		Evaluations: evaluations,
	}, cancelErr
}

// weightedReferenceUtility normalizes the utility term to the privacy
// term's unit scale: the utility of a mid-noise Warner matrix.
func weightedReferenceUtility(cfg WeightedSumConfig) float64 {
	for _, p := range []float64{0.5, 0.6, 0.7} {
		m, err := rr.Warner(len(cfg.Prior), p)
		if err != nil {
			continue
		}
		if u, err := metrics.Utility(m, cfg.Prior, cfg.Records); err == nil && u > 0 {
			return u
		}
	}
	return math.Max(1e-6, 1.0/float64(cfg.Records))
}
