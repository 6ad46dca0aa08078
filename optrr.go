// Package optrr is a Go implementation of OptRR (Huang & Du, ICDE 2008):
// optimal randomized-response schemes for privacy-preserving data mining.
//
// Randomized response (RR) disguises a categorical attribute by replacing
// each value c_i with c_j according to a column-stochastic matrix M with
// M[j][i] = P(report c_j | true value c_i). The data distribution remains
// recoverable from the disguised records, while individual values are
// protected. Two conflicting qualities measure an RR matrix:
//
//   - Privacy: 1 minus the accuracy of the Bayes-optimal (MAP) adversary
//     estimating individual records from their disguised values.
//   - Utility: the mean squared error of the reconstructed distribution
//     (smaller is better).
//
// OptRR searches for the Pareto-optimal set of RR matrices under a
// worst-case posterior bound max P(X|Y) ≤ δ using an evolutionary
// multi-objective optimizer (a customized SPEA2).
//
// # Quick start
//
//	prior := []float64{0.4, 0.3, 0.2, 0.1}
//	res, err := optrr.Optimize(optrr.Problem{
//		Prior:   prior,
//		Records: 10000,
//		Delta:   0.8,
//		Seed:    1,
//	})
//	// res.Front is the optimal privacy/utility trade-off curve;
//	// pick a matrix with at least the privacy you need:
//	m, ok := res.MatrixWithPrivacyAtLeast(0.5)
//
// Apply a matrix to data and reconstruct the distribution:
//
//	disguised, _ := m.Disguise(records, rng)
//	estimate, _ := m.EstimateInversion(disguised)
//
// The classic schemes (Warner, Uniform Perturbation, FRAPP) are available
// through Warner, UniformPerturbation and FRAPP for comparison; Theorem 2 of
// the paper (and this package's tests) shows all three generate the same
// one-parameter matrix family.
package optrr

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"optrr/internal/core"
	"optrr/internal/dataset"
	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Matrix is a column-stochastic randomized-response matrix. See
// internal/rr for its methods: Disguise, EstimateInversion,
// EstimateIterative, DisguisedDistribution, Theta, N, Validate.
type Matrix = rr.Matrix

// IterativeOptions configures Matrix.EstimateIterative.
type IterativeOptions = rr.IterativeOptions

// Evaluation bundles the privacy and utility of a matrix under a prior.
type Evaluation = metrics.Evaluation

// Point is a position in objective space: the canonical (privacy, utility)
// pair plus any extra objectives configured on the run (see
// Problem.ExtraObjectives).
type Point = pareto.Point

// Rand is the deterministic random source used across the library.
type Rand = randx.Source

// NewRand returns a seeded deterministic random source.
func NewRand(seed uint64) *Rand { return randx.New(seed) }

// Warner returns the Warner-scheme matrix over n categories: diagonal p,
// off-diagonal (1−p)/(n−1).
func Warner(n int, p float64) (*Matrix, error) { return rr.Warner(n, p) }

// UniformPerturbation returns the UP-scheme matrix: retain with probability
// q, otherwise replace uniformly.
func UniformPerturbation(n int, q float64) (*Matrix, error) {
	return rr.UniformPerturbation(n, q)
}

// FRAPP returns the FRAPP-scheme matrix with parameter gamma ("λ" in the
// paper): diagonal λ/(λ+n−1).
func FRAPP(n int, lambda float64) (*Matrix, error) { return rr.FRAPP(n, lambda) }

// Identity returns the identity matrix (no disguise: best utility, zero
// privacy).
func Identity(n int) *Matrix { return rr.Identity(n) }

// Privacy returns the paper's privacy metric for m under the given prior:
// 1 minus the MAP adversary's expected accuracy. Larger is better.
func Privacy(m *Matrix, prior []float64) (float64, error) {
	return metrics.Privacy(m, prior)
}

// Utility returns the paper's utility metric: the average closed-form MSE of
// the inversion estimator over a data set of the given size. Smaller is
// better.
func Utility(m *Matrix, prior []float64, records int) (float64, error) {
	return metrics.Utility(m, prior, records)
}

// MaxPosterior returns the worst-case per-record estimation accuracy
// max P(X|Y), the quantity bounded by δ.
func MaxPosterior(m *Matrix, prior []float64) (float64, error) {
	return metrics.MaxPosterior(m, prior)
}

// Evaluate computes privacy, utility and the posterior bound in one call.
func Evaluate(m *Matrix, prior []float64, records int) (Evaluation, error) {
	return metrics.Evaluate(m, prior, records)
}

// EmpiricalDistribution returns the category frequencies of records over n
// categories — the MLE of the underlying distribution.
func EmpiricalDistribution(n int, records []int) ([]float64, error) {
	d, err := dataset.NewCategorical(n, records)
	if err != nil {
		return nil, err
	}
	return d.Distribution(), nil
}

// Problem describes one OptRR optimization task.
type Problem struct {
	// Prior is the category distribution of the original data. Estimate it
	// with EmpiricalDistribution if only raw records are available.
	Prior []float64
	// Records is the data-set size N entering the utility MSE.
	Records int
	// Delta is the worst-case posterior bound δ ∈ (0, 1]. It must be at
	// least the largest prior probability (Theorem 5).
	Delta float64
	// Seed makes the run reproducible.
	Seed uint64
	// Generations overrides the search budget; zero uses the default (500).
	// The paper's experiments use 20000.
	Generations int
	// ExtraObjectives names additional optimization axes from the objective
	// registry (e.g. "ldp-epsilon", "mutual-information", "worst-mse", or
	// anything added with RegisterObjective; aliases like "ldp" and "mi"
	// resolve). The search then returns a k-dimensional front, with the
	// extra values carried on each Point and readable by name through
	// Result.ObjectiveValues. Empty keeps the paper's two-objective search.
	ExtraObjectives []string
	// Recorder, if non-nil, receives the optimizer's structured run-trace
	// events (optimizer.start / optimizer.generation / optimizer.done); see
	// NewJSONLRecorder. Nil disables tracing at zero cost.
	Recorder Recorder
	// Metrics, if non-nil, receives live optimizer counters and gauges,
	// suitable for serving with ServeDebug while the search runs.
	Metrics *Metrics
	// Advanced exposes every tuning knob of the optimizer. If non-nil, its
	// Prior/Records/Delta/Seed/Generations are overwritten by the fields
	// above (Recorder/Metrics too, when set here).
	Advanced *core.Config
}

// Result is the outcome of Optimize: the Pareto-optimal set of RR matrices.
type Result struct {
	// Front lists the optimal trade-off points, ascending in privacy.
	Front []Point
	// matrices[i] corresponds to Front[i].
	matrices []*Matrix
	// objectives are the extra axes the run was configured with; Front[i]
	// carries their canonical values beyond the privacy/utility pair.
	objectives []metrics.Objective
	// Generations and Evaluations report the search effort spent.
	Generations int
	Evaluations int
}

// Matrices returns the optimal matrices, index-aligned with Front.
func (r *Result) Matrices() []*Matrix {
	out := make([]*Matrix, len(r.matrices))
	copy(out, r.matrices)
	return out
}

// MatrixWithPrivacyAtLeast returns the matrix with the best utility among
// those offering at least the requested privacy, or ok=false if the front
// does not reach that level.
func (r *Result) MatrixWithPrivacyAtLeast(privacy float64) (*Matrix, bool) {
	best := -1
	for i, p := range r.Front {
		if p.Privacy >= privacy && (best == -1 || p.Utility < r.Front[best].Utility) {
			best = i
		}
	}
	if best == -1 {
		return nil, false
	}
	return r.matrices[best], true
}

// MatrixWithUtilityAtMost returns the matrix with the best privacy among
// those with utility (MSE) at most the requested level, or ok=false if none
// qualifies.
func (r *Result) MatrixWithUtilityAtMost(utility float64) (*Matrix, bool) {
	best := -1
	for i, p := range r.Front {
		if p.Utility <= utility && (best == -1 || p.Privacy > r.Front[best].Privacy) {
			best = i
		}
	}
	if best == -1 {
		return nil, false
	}
	return r.matrices[best], true
}

// Optimize runs the OptRR search and returns the Pareto-optimal matrix set.
func Optimize(p Problem) (*Result, error) {
	return OptimizeContext(context.Background(), p)
}

// OptimizeContext runs the OptRR search under a context: cancellation or a
// deadline stops the search at the next generation boundary. When the
// context ends a run early, the returned Result is non-nil and holds the
// best front found so far, and the error wraps ctx.Err() — so callers can
// serve a partial trade-off curve after a timeout:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, err := optrr.OptimizeContext(ctx, problem)
//	if res != nil { /* res.Front is usable even when err != nil */ }
//
// An already-cancelled context returns promptly with an empty front and an
// error wrapping context.Canceled. Any other error returns a nil Result, as
// with Optimize.
func OptimizeContext(ctx context.Context, p Problem) (*Result, error) {
	var cfg core.Config
	if p.Advanced != nil {
		cfg = *p.Advanced
	} else {
		cfg = core.DefaultConfig(p.Prior, p.Records, p.Delta)
	}
	cfg.Prior = p.Prior
	cfg.Records = p.Records
	cfg.Delta = p.Delta
	cfg.Seed = p.Seed
	cfg.Context = ctx
	if p.Generations != 0 {
		cfg.Generations = p.Generations
	}
	if p.Recorder != nil {
		cfg.Recorder = p.Recorder
	}
	if p.Metrics != nil {
		cfg.Metrics = p.Metrics
	}
	if len(p.ExtraObjectives) > 0 {
		objs, err := resolveObjectives(p.ExtraObjectives)
		if err != nil {
			return nil, err
		}
		cfg.Objectives = objs
	}
	opt, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	res, runErr := opt.Run()
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		// A real failure, not a cancellation: nothing useful to return.
		return nil, fmt.Errorf("optrr: %w", runErr)
	}
	ms, err := res.Matrices()
	if err != nil {
		return nil, fmt.Errorf("optrr: %w", err)
	}
	// Result rows in pareto.Compare order (ascending privacy, then utility,
	// then the extras), each matrix sorted with its point, as in
	// OptimizeMulti.
	type pair struct {
		pt Point
		m  *Matrix
	}
	pairs := make([]pair, len(res.Front))
	for i, ind := range res.Front {
		pairs[i] = pair{pt: ind.Point(), m: ms[i]}
	}
	sort.Slice(pairs, func(a, b int) bool {
		return pareto.Compare(pairs[a].pt, pairs[b].pt) < 0
	})
	out := &Result{
		Front:       make([]Point, len(pairs)),
		matrices:    make([]*Matrix, len(pairs)),
		objectives:  cfg.Objectives,
		Generations: res.Generations,
		Evaluations: res.Evaluations,
	}
	for i, pr := range pairs {
		out.Front[i] = pr.pt
		out.matrices[i] = pr.m
	}
	if runErr != nil {
		return out, fmt.Errorf("optrr: %w", runErr)
	}
	return out, nil
}
