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

	// Weights is the number of weight values swept per axis; zero means
	// 21. With no extra objectives this is exactly the paper-era sweep of
	// w across [0, 1]; with k objectives the sweep enumerates the simplex
	// lattice with Weights−1 divisions, so the run count grows
	// combinatorially in k.
	Weights int
	// Objectives appends extra objectives to the scalarization, exactly as
	// Config.Objectives does for the EMO: each weight vector then has one
	// component per objective, and the collected union front is filtered by
	// k-dimensional dominance. Nil reproduces the legacy two-term scalar
	// bit-for-bit.
	Objectives []metrics.Objective
	// PopulationSize per weight; zero means 30.
	PopulationSize int
	// Generations per weight; zero means 100.
	Generations int
	// MutationRate as in Config; zero means 0.6.
	MutationRate float64
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
	if c.MutationRate == 0 {
		c.MutationRate = 0.6
	}
	return c
}

// singleConfig is the one-worker single-attribute configuration whose
// problem definition realizes the baseline's genomes.
func (c WeightedSumConfig) singleConfig() Config {
	return Config{Prior: c.Prior, Records: c.Records, Delta: c.Delta, Objectives: c.Objectives, Workers: 1}
}

// Validate checks the configuration.
func (c WeightedSumConfig) Validate() error {
	return c.singleConfig().Validate()
}

// OptimizeWeightedSum sweeps weight vectors v over the objective simplex;
// for each v a single-objective GA minimizes
//
//	f(M) = v₁·(Utility(M)/uRef) + v₀·(1 − Privacy(M)) + Σ_t v_{2+t}·(x_t/ref_t),
//
// with uRef a fixed utility normalizer so both terms share a scale, x_t the
// canonical value of extra objective t and ref_t its normalizer. Without
// extra objectives this is exactly the paper-era sweep of
// w·(Utility/uRef) + (1−w)·(1−Privacy) over w ∈ [0, 1]. Every individual
// ever evaluated feasibly is collected and the Pareto front of the union is
// returned, making the comparison against the EMO as generous to the
// baseline as possible. The returned Result mirrors Run's.
func OptimizeWeightedSum(cfg WeightedSumConfig) (Result, error) {
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
	extraRefs := weightedReferenceExtras(cfg)
	evaluations := 0

	// Genomes are repaired and evaluated exactly as in the EMO, on the
	// single-attribute problem's one worker: the sweep is sequential.
	evaluate := func(g Genome) (Individual, bool) {
		evaluations++
		ind, c := single.realizeGenome(g, 0)
		return ind, c.ok
	}
	// The utility term leads so that the two-term case reproduces the
	// legacy w·(U/uRef) + (1−w)·(1−P) floating-point sequence exactly
	// (v₁ = w and v₀ = 1−w bit-for-bit, see weightVectors).
	scalar := func(ind Individual, v []float64) float64 {
		s := v[1]*(ind.Eval.Utility/uRef) + v[0]*(1-ind.Eval.Privacy)
		for t, x := range ind.Eval.Extra {
			s += v[2+t] * (x / extraRefs[t])
		}
		return s
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
	vectors := weightVectors(2+len(cfg.Objectives), cfg.Weights)
sweep:
	for _, w := range vectors {
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
					if rng.Float64() < cfg.MutationRate {
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

// weightVectors enumerates the sweep's weight vectors: length-k, entries on
// the lattice {0, 1/m, …, 1} with m = weights−1, summing to 1. The k = 2
// case is kept in the exact legacy arithmetic — v₁ = wi/m and v₀ = 1−v₁ —
// so the two-objective baseline's floating point is bit-for-bit unchanged
// (the generic c/m form can differ from 1−w in the last bit).
func weightVectors(k, weights int) [][]float64 {
	m := weights - 1
	if k == 2 {
		out := make([][]float64, weights)
		for wi := 0; wi < weights; wi++ {
			w := float64(wi) / float64(m)
			out[wi] = []float64{1 - w, w}
		}
		return out
	}
	var out [][]float64
	comp := make([]int, k)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == k-1 {
			comp[pos] = left
			v := make([]float64, k)
			for i, c := range comp {
				v[i] = float64(c) / float64(m)
			}
			out = append(out, v)
			return
		}
		for c := 0; c <= left; c++ {
			comp[pos] = c
			rec(pos+1, left-c)
		}
	}
	rec(0, m)
	return out
}

// weightedReferenceExtras normalizes each extra objective's term to unit
// scale the same way uRef normalizes utility: its canonical magnitude on a
// mid-noise Warner matrix. Objectives that are zero or unevaluable on every
// probe fall back to 1.
func weightedReferenceExtras(cfg WeightedSumConfig) []float64 {
	refs := make([]float64, len(cfg.Objectives))
	for t := range refs {
		refs[t] = 1
	}
	if len(refs) == 0 {
		return refs
	}
	ws := metrics.NewWorkspace()
	for _, p := range []float64{0.6, 0.7, 0.5} {
		m, err := rr.Warner(len(cfg.Prior), p)
		if err != nil {
			continue
		}
		if _, err := ws.Evaluate(m, cfg.Prior, cfg.Records); err != nil {
			continue
		}
		ok := true
		for t, obj := range cfg.Objectives {
			v, err := obj.Evaluate(ws, m, cfg.Prior, cfg.Records)
			if err != nil || v == 0 || math.IsNaN(v) {
				ok = false
				break
			}
			refs[t] = math.Abs(v)
		}
		if ok {
			return refs
		}
	}
	for t := range refs {
		refs[t] = 1
	}
	return refs
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
