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

// Multi-dimensional OptRR — the paper's stated future work (Section VII).
// A record has d attributes, each disguised with its own matrix; the genome
// is the tuple of per-attribute genomes. Objectives are record-level: the
// privacy of the MAP adversary observing the full disguised record, and the
// MSE of the reconstructed joint distribution. The bound δ now limits the
// record-level posterior max P(X-record | Y-record), which per-attribute
// bounds cannot express (they do not compose), so repair operates through
// the joint posterior.
//
// The search is the single-attribute generation engine with a second problem
// definition, multiProblem, over genome tuples. Evaluation is
// Kronecker-factored end to end: every individual is scored through a
// per-worker metrics.JointWorkspace that works on the d small per-attribute
// matrices — O(N·Σn_d) per evaluation with zero steady-state allocations and
// no product-space matrix, so the search scales to product spaces far beyond
// the old dense-channel cap. The engine's worker pool and sequential redraws
// make the output bit-for-bit identical at every worker count.

// MultiConfig parameterizes the multi-dimensional optimizer.
type MultiConfig struct {
	// Joint is the original joint distribution over the product space
	// (row-major, attribute 0 slowest), e.g. from
	// mining.MultiRR.EmpiricalJoint on clean calibration data.
	Joint []float64
	// Sizes lists the per-attribute category counts; their product must be
	// len(Joint).
	Sizes []int
	// Records is the data-set size N for the utility metric.
	Records int
	// Delta bounds the record-level posterior.
	Delta float64

	// PopulationSize, ArchiveSize, MutationRate, Seed and Workers mirror
	// Config, zero values included. OmegaSize and Generations do not: zero
	// OmegaSize means 1000 bins (Ω cannot be disabled here) and zero
	// Generations means 300.
	PopulationSize int
	ArchiveSize    int
	OmegaSize      int
	Generations    int
	MutationRate   float64
	Seed           uint64
	Workers        int
	// Context, if non-nil, is checked once per generation; cancellation
	// stops the search and returns the best-so-far front together with an
	// error wrapping ctx.Err().
	Context context.Context
}

// MultiIndividual couples a tuple of per-attribute genomes with its
// record-level evaluation.
type MultiIndividual struct {
	Genomes []Genome
	Eval    metrics.Evaluation
}

// Point returns the individual's objective-space image, carrying any extra
// objective values the evaluation recorded (canonical minimized form).
func (mi MultiIndividual) Point() pareto.Point {
	return pareto.NewPoint(mi.Eval.Privacy, mi.Eval.Utility, mi.Eval.Extra...)
}

// Matrices converts the genome tuple into validated RR matrices.
func (mi MultiIndividual) Matrices() ([]*rr.Matrix, error) {
	out := make([]*rr.Matrix, len(mi.Genomes))
	for d, g := range mi.Genomes {
		m, err := g.Matrix()
		if err != nil {
			return nil, err
		}
		out[d] = m
	}
	return out, nil
}

// MultiResult is the outcome of a multi-dimensional run.
type MultiResult struct {
	// Front is the Pareto-optimal set, ascending in privacy.
	Front []MultiIndividual
	// Generations and Evaluations report search effort.
	Generations int
	Evaluations int
}

// FrontPoints returns the front in objective space.
func (res MultiResult) FrontPoints() []pareto.Point {
	pts := make([]pareto.Point, len(res.Front))
	for i, ind := range res.Front {
		pts[i] = ind.Point()
	}
	pareto.SortByPrivacy(pts)
	return pts
}

// engineConfig maps the multi-attribute search onto the generation engine's
// Config, with defaults applied.
func (c MultiConfig) engineConfig() Config {
	if c.Generations == 0 {
		c.Generations = 300
	}
	if c.OmegaSize == 0 {
		c.OmegaSize = 1000
	}
	return Config{
		Delta:          c.Delta,
		PopulationSize: c.PopulationSize,
		ArchiveSize:    c.ArchiveSize,
		OmegaSize:      c.OmegaSize,
		Generations:    c.Generations,
		MutationRate:   c.MutationRate,
		// A mutated child gets two tuple mutations, each on one attribute
		// drawn at random.
		MutationsPerChild: 2,
		ImmigrantFraction: -1, // no immigrants
		KNearest:          1,
		Normalize:         true,
		Seed:              c.Seed,
		Workers:           c.Workers,
		Context:           c.Context,
	}.withDefaults()
}

// Validate checks the configuration.
func (c MultiConfig) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("%w: no attributes", ErrBadConfig)
	}
	total := 1
	for d, s := range c.Sizes {
		if s < 2 {
			return fmt.Errorf("%w: attribute %d has %d categories", ErrBadConfig, d, s)
		}
		total *= s
	}
	if len(c.Joint) != total {
		return fmt.Errorf("%w: joint has %d cells, want %d", ErrBadConfig, len(c.Joint), total)
	}
	return validateSearch("joint", c.Joint, c.Records, c.Delta, c.MutationRate,
		c.PopulationSize, c.ArchiveSize, c.Generations, c.OmegaSize)
}

// OptimizeMulti runs the multi-dimensional search and returns its Pareto
// front: SPEA2 fitness and selection over the tuple genomes, attribute-wise
// crossover and mutation, blend-to-uniform repair of the record-level bound,
// and the privacy-indexed Ω set. Individuals are evaluated worker-parallel
// through per-worker Kronecker-factored workspaces; the output is
// bit-for-bit identical at every Workers setting.
func OptimizeMulti(cfg MultiConfig) (MultiResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	if err := ctxErr(cfg.Context); err != nil {
		return MultiResult{}, cancelError(0, err)
	}
	ecfg := cfg.engineConfig()
	p := &multiProblem{cfg: cfg, scratch: make([]*multiScratch, ecfg.Workers)}
	for w := range p.scratch {
		p.scratch[w] = newMultiScratch(cfg.Sizes)
	}
	e := newEngine[tuple](ecfg, p)
	rs, err := e.search()
	if err != nil {
		return MultiResult{}, err
	}
	front := e.front(rs.archive)
	res := MultiResult{Front: make([]MultiIndividual, len(front)), Generations: rs.gen, Evaluations: e.evaluations}
	for i, ind := range front {
		res.Front[i] = MultiIndividual{Genomes: ind.Genome, Eval: ind.Eval}
	}
	return res, rs.cancelErr
}

// tuple is the multi-attribute genome: one Genome per attribute.
type tuple []Genome

// Clone deep-copies every attribute's genome.
func (t tuple) Clone() tuple {
	out := make(tuple, len(t))
	for d, g := range t {
		out[d] = g.Clone()
	}
	return out
}

// multiProblem is the multi-attribute problem definition: tuples are drawn,
// recombined and mutated attribute by attribute, and repaired and evaluated
// record-level on one multiScratch per worker.
type multiProblem struct {
	cfg     MultiConfig
	scratch []*multiScratch
}

// randomGenome draws every attribute's genome flat-Dirichlet.
func (p *multiProblem) randomGenome(r *randx.Source) tuple {
	t := make(tuple, len(p.cfg.Sizes))
	for d, n := range p.cfg.Sizes {
		t[d] = NewRandomGenome(n, r)
	}
	return t
}

// crossover cuts every attribute's pair of genomes independently.
func (p *multiProblem) crossover(a, b tuple, r *randx.Source) (tuple, tuple, error) {
	c1, c2 := make(tuple, len(a)), make(tuple, len(a))
	for d := range a {
		var err error
		if c1[d], c2[d], err = Crossover(a[d], b[d], r); err != nil {
			return nil, nil, err
		}
	}
	return c1, c2, nil
}

// mutate applies the paper's mutation to one attribute drawn at random.
func (p *multiProblem) mutate(t tuple, r *randx.Source) {
	Mutate(t[r.Intn(len(t))], MutationProportional, 1, r)
}

// project does nothing: tuples are not restricted to a subspace.
func (p *multiProblem) project(tuple) {}

// initialPopulation is memetic: even slots are random, odd slots seed the
// baseline one-parameter family (the same constant diagonal on every
// attribute, spread over its range) so the search starts from the symmetric
// baseline and can only improve on it.
func (p *multiProblem) initialPopulation(size int, r *randx.Source) []tuple {
	out := make([]tuple, size)
	for i := range out {
		if i%2 == 0 {
			out[i] = p.randomGenome(r)
			continue
		}
		gamma := 0.1 + 0.85*float64(i)/float64(size)
		t := make(tuple, len(p.cfg.Sizes))
		for d, n := range p.cfg.Sizes {
			t[d] = diagonalGenome(n, gamma)
		}
		out[i] = t
	}
	return out
}

// realizeGenome materializes the tuple, repairs the record-level bound,
// re-materializes the repaired tuple and evaluates it.
func (p *multiProblem) realizeGenome(t tuple, w int) (individual[tuple], genomeOutcome) {
	sc := p.scratch[w]
	if !materializeTuple(sc.mats, t) || !meetJointBound(t, sc, p.cfg) || !materializeTuple(sc.mats, t) {
		return individual[tuple]{}, genomeOutcome{}
	}
	ev, err := sc.jws.Evaluate(sc.mats, p.cfg.Joint, p.cfg.Records)
	if err != nil {
		return individual[tuple]{}, genomeOutcome{}
	}
	return individual[tuple]{Genome: t, Eval: ev}, genomeOutcome{ok: true}
}

// referenceUtility is the joint utility of the noisiest evaluable Warner
// tuple, doubled.
func (p *multiProblem) referenceUtility() float64 {
	return warnerReference(p.cfg.Sizes, func(ms []*rr.Matrix) (float64, error) {
		return p.scratch[0].jws.Utility(ms, p.cfg.Joint, p.cfg.Records)
	})
}

// backfill is off: the reverse three-set update lowers the median front
// quality of tuple searches and slows them (DESIGN.md §7).
func (p *multiProblem) backfill() bool { return false }

// multiScratch is one worker's exclusive evaluation state: the factored
// joint workspace plus per-attribute scratch matrices for materialization
// and for the repair bisection's blended candidates, with preallocated
// column buffers so a repair performs no steady-state allocations either.
type multiScratch struct {
	jws   *metrics.JointWorkspace
	mats  []*rr.Matrix
	blend []*rr.Matrix
	cols  [][][]float64
}

func newMultiScratch(sizes []int) *multiScratch {
	sc := &multiScratch{
		jws:   metrics.NewJointWorkspace(),
		mats:  make([]*rr.Matrix, len(sizes)),
		blend: make([]*rr.Matrix, len(sizes)),
		cols:  make([][][]float64, len(sizes)),
	}
	for d, n := range sizes {
		sc.mats[d] = rr.NewScratchMatrix(n)
		sc.blend[d] = rr.NewScratchMatrix(n)
		cols := make([][]float64, n)
		for i := range cols {
			cols[i] = make([]float64, n)
		}
		sc.cols[d] = cols
	}
	return sc
}

// materializeTuple writes each genome into its scratch matrix, validating as
// Genome.Matrix would.
func materializeTuple(ms []*rr.Matrix, gs []Genome) bool {
	for d, g := range gs {
		if err := ms[d].SetColumns(g); err != nil {
			return false
		}
	}
	return true
}

// meetJointBound enforces the record-level posterior bound: per-attribute
// slack repair cannot target a joint posterior, so the repair blends every
// attribute's genome toward its uniform matrix by a common factor found by
// bisection (at factor 1 the joint posteriors equal the joint prior, whose
// mode is below delta by Validate). Every posterior probe runs on the
// worker's factored workspace — two mode contractions and a sweep, no joint
// channel and no inverse — so the ~30 bisection probes per infeasible child
// stay off the allocator entirely. sc.mats must hold the materialized gs.
func meetJointBound(gs []Genome, sc *multiScratch, cfg MultiConfig) bool {
	if mp, err := sc.jws.MaxPosterior(sc.mats, cfg.Joint); err == nil && mp <= cfg.Delta+1e-12 {
		return true
	}
	worst := func(t float64) float64 {
		for d, g := range gs {
			n := g.N()
			u := 1 / float64(n)
			cols := sc.cols[d]
			for i, col := range g {
				ci := cols[i]
				for j, v := range col {
					ci[j] = (1-t)*v + t*u
				}
			}
			if err := sc.blend[d].SetColumns(cols); err != nil {
				return math.Inf(1)
			}
		}
		mp, err := sc.jws.MaxPosterior(sc.blend, cfg.Joint)
		if err != nil {
			return math.Inf(1)
		}
		return mp
	}
	if worst(1) > cfg.Delta+1e-12 {
		return false
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		if worst(mid) <= cfg.Delta+1e-12 {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, g := range gs {
		u := 1 / float64(g.N())
		for _, col := range g {
			for j := range col {
				col[j] = (1-hi)*col[j] + hi*u
			}
		}
	}
	return true
}
