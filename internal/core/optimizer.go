package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"optrr/internal/emoo"
	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/par"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Engine selects the evolutionary multi-objective algorithm driving the
// search. The paper chooses SPEA2 over other EMO algorithms citing a
// comparison study (Section V); EngineNSGA2 exists to validate that choice
// (the abl-nsga2 experiment).
type Engine int

const (
	// EngineSPEA2 is the paper's algorithm (default).
	EngineSPEA2 Engine = iota
	// EngineNSGA2 swaps in NSGA-II fitness and environmental selection.
	EngineNSGA2
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSPEA2:
		return "spea2"
	case EngineNSGA2:
		return "nsga2"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// BoundMode selects how matrices violating the δ bound are handled — the
// paper repairs them (Section V-G); rejection is the ablation baseline.
type BoundMode int

const (
	// BoundRepair pushes violating matrices back under the bound.
	BoundRepair BoundMode = iota
	// BoundReject discards violating matrices and substitutes fresh random
	// feasible ones.
	BoundReject
)

// String implements fmt.Stringer.
func (b BoundMode) String() string {
	switch b {
	case BoundRepair:
		return "repair"
	case BoundReject:
		return "reject"
	default:
		return fmt.Sprintf("BoundMode(%d)", int(b))
	}
}

// Config parameterizes the optimizer. The zero value is not runnable; use
// DefaultConfig as a starting point.
type Config struct {
	// Prior is the original-data category distribution P(X) the privacy and
	// utility metrics are computed against. Required.
	Prior []float64
	// Records is the data-set size N entering the utility MSE. Required.
	Records int
	// Delta is the worst-case posterior bound δ of Equation (9). Required;
	// must exceed the prior mode (Theorem 5) to be satisfiable.
	Delta float64

	// PopulationSize is N_Q; zero means 40.
	PopulationSize int
	// ArchiveSize is N_V; zero means 40.
	ArchiveSize int
	// OmegaSize is N_Ω, the number of privacy bins of the optimal set;
	// zero disables Ω (plain SPEA2, the ablation baseline). The paper's
	// experiments use 1000.
	OmegaSize int
	// Generations is the iteration budget L. Zero means 500.
	Generations int
	// StagnationLimit stops the run after this many consecutive generations
	// without any Ω improvement (the paper's alternative termination
	// criterion). Zero disables stagnation-based termination.
	StagnationLimit int

	// MutationStyle selects the paper's proportional mutation (default) or
	// the naive renormalizing baseline.
	MutationStyle MutationStyle
	// BoundMode selects repair (default, the paper) or reject.
	BoundMode BoundMode
	// SymmetricOnly restricts the search to symmetric matrices,
	// reproducing the Agrawal–Haritsa related-work restriction.
	SymmetricOnly bool
	// Engine selects the EMO algorithm (default: SPEA2, the paper's).
	Engine Engine
	// PrivacyFn, if non-nil, replaces the paper's Equation-8 privacy with a
	// custom objective (e.g. metrics.PrivacyWithGain under an ordinal gain
	// — the generalized adversary of Section IV-A). It must return values
	// in [0, 1] with larger meaning more private; the δ bound of Equation 9
	// is enforced regardless.
	PrivacyFn func(m *rr.Matrix, prior []float64) (float64, error)
	// Objectives lists extra objectives appended to the canonical
	// privacy/utility pair, turning the search k-dimensional (k = 2 +
	// len(Objectives), at most 2 + pareto.MaxExtraObjectives). Each is
	// evaluated against the worker's Workspace right after the fused
	// Evaluate, so built-ins reuse the already-computed P* and inverse.
	// Values are stored in Individual.Eval.Extra in canonical minimized
	// form (Maximize objectives negated) and participate in dominance,
	// SPEA2 density and the final front. Nil (the default) is the paper's
	// two-objective search, bit-for-bit unchanged.
	Objectives []metrics.Objective

	// Context, if non-nil, bounds the run: it is checked once per
	// generation, and a cancelled or deadline-exceeded context stops the
	// search at the next generation boundary. Run then returns the best
	// front found so far together with an error wrapping ctx.Err(), so
	// callers keep the partial result. Nil means no deadline (identical to
	// context.Background()) and costs nothing.
	Context context.Context

	// Seed drives all randomness; runs with equal configs are bit-for-bit
	// reproducible.
	Seed uint64
	// Workers bounds the parallelism of objective evaluation; zero means
	// GOMAXPROCS. Results are bit-for-bit identical at every worker count.
	Workers int

	// Islands splits the search into this many independent sub-populations
	// (each with its own RNG stream, scratch and local Ω archive) that
	// exchange their best members along a ring every MigrateEvery
	// generations and fold their fronts into one global Ω. 0 or 1 (the
	// default) is the single-population search, bit-for-bit identical to
	// previous releases regardless of Workers. Island runs are
	// seeded-reproducible for a fixed (Seed, Islands, MigrateEvery) but
	// produce different (equivalent-quality) fronts than the serial search.
	// In island mode Progress fires once per migration epoch rather than per
	// generation.
	Islands int
	// MigrateEvery is the migration interval M in generations; zero means
	// 25. Only meaningful with Islands > 1.
	MigrateEvery int

	// Progress, if non-nil, is invoked after every generation with running
	// statistics. It must not retain the Stats value's slices — they alias a
	// scratch buffer the optimizer overwrites next generation; callbacks
	// that keep Stats past their return must use Stats.Clone.
	Progress func(Stats)

	// Recorder, if non-nil and enabled, receives the structured run-trace
	// events "optimizer.start", "optimizer.generation" (one per generation,
	// with evaluation, repair, Ω and per-phase wall-time detail) and
	// "optimizer.done". A nil or no-op recorder costs nothing: no events
	// are built and no extra timing is taken.
	Recorder obs.Recorder
	// Metrics, if non-nil, receives live counters and gauges under the
	// "optimizer." name prefix (see newOptimizerMetrics), suitable for
	// expvar publication while a search runs.
	Metrics *obs.Registry
}

// The search's fixed operators (Section V): no caller varies them.
const (
	// mutationRate is the per-child probability of mutating after crossover.
	mutationRate = 0.6
	// mutationsPerChild is the number of mutations a mutated child gets; more
	// than one speeds up the discovery of the coordinated cross-column
	// structures at the low-privacy end of the front.
	mutationsPerChild = 2
	// immigrantFraction is the share of each generation's population that a
	// problem drawing immigrants replaces with fresh random genomes, keeping
	// exploration pressure far from the current front.
	immigrantFraction = 0.1
	// migrationSize is the number of front members each island exports to
	// its ring neighbour per migration.
	migrationSize = 4
)

// spea2Config is the paper's SPEA2: nearest-neighbour density and truncation
// on range-normalized objectives.
var spea2Config = emoo.Config{KNearest: 1, Normalize: true}

// DefaultConfig returns the configuration used throughout the paper's
// experiments, for the given prior, record count and bound.
func DefaultConfig(prior []float64, records int, delta float64) Config {
	return Config{
		Prior:     prior,
		Records:   records,
		Delta:     delta,
		OmegaSize: 1000,
	}
}

func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 40
	}
	if c.ArchiveSize == 0 {
		c.ArchiveSize = 40
	}
	if c.Generations == 0 {
		c.Generations = 500
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Islands > 1 && c.MigrateEvery == 0 {
		c.MigrateEvery = 25
	}
	return c
}

// Optimizer errors.
var (
	// ErrBadConfig reports an unusable configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrInfeasibleBound reports a δ below the prior mode, which no RR
	// matrix can satisfy (Theorem 5).
	ErrInfeasibleBound = errors.New("core: privacy bound is below the prior mode (Theorem 5)")
)

// ctxErr returns the context's error, tolerating the nil context the zero
// Config carries.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelError wraps a context error with run progress: callers can test
// errors.Is(err, context.Canceled) / context.DeadlineExceeded and still see
// how far the search got before it stopped.
func cancelError(gen int, err error) error {
	return fmt.Errorf("core: optimization stopped after %d generations: %w", gen, err)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Prior) < 2 {
		return fmt.Errorf("%w: prior must have at least 2 categories", ErrBadConfig)
	}
	if err := validateSearch("prior", c.Prior, c.Records, c.Delta,
		c.PopulationSize, c.ArchiveSize, c.Generations, c.OmegaSize); err != nil {
		return err
	}
	if c.Islands < 0 || c.MigrateEvery < 0 {
		return fmt.Errorf("%w: negative island parameter", ErrBadConfig)
	}
	return validateObjectives(c.Objectives)
}

// validateSearch holds the checks the single- and multi-attribute searches
// share: dist (named what in messages) is a probability distribution,
// records and delta are usable, delta clears the distribution's mode
// (Theorem 5) and no size is negative.
func validateSearch(what string, dist []float64, records int, delta float64, sizes ...int) error {
	var sum float64
	for i, v := range dist {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: %s[%d] = %v", ErrBadConfig, what, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: %s sums to %v", ErrBadConfig, what, sum)
	}
	if records <= 0 {
		return fmt.Errorf("%w: records = %d", ErrBadConfig, records)
	}
	if !(delta > 0 && delta <= 1) { // NaN fails both comparisons
		return fmt.Errorf("%w: delta = %v outside (0, 1]", ErrBadConfig, delta)
	}
	if floor := metrics.BoundFloor(dist); floor > delta+metrics.BoundTolerance {
		return fmt.Errorf("%w: delta = %v, %s mode = %v", ErrInfeasibleBound, delta, what, floor)
	}
	return validateSizes(sizes...)
}

// validateSizes rejects a negative size.
func validateSizes(sizes ...int) error {
	for _, s := range sizes {
		if s < 0 {
			return fmt.Errorf("%w: negative size", ErrBadConfig)
		}
	}
	return nil
}

// validateObjectives checks an extra-objective list: bounded by the Point
// capacity, no nils, and unique non-reserved names.
func validateObjectives(objs []metrics.Objective) error {
	if len(objs) > pareto.MaxExtraObjectives {
		return fmt.Errorf("%w: %d extra objectives, at most %d supported", ErrBadConfig, len(objs), pareto.MaxExtraObjectives)
	}
	seen := make(map[string]bool, len(objs))
	for i, obj := range objs {
		if obj == nil {
			return fmt.Errorf("%w: objective %d is nil", ErrBadConfig, i)
		}
		name := obj.Name()
		if name == "" {
			return fmt.Errorf("%w: objective %d has an empty name", ErrBadConfig, i)
		}
		if name == "privacy" || name == "utility" {
			return fmt.Errorf("%w: objective name %q is reserved for the canonical axes", ErrBadConfig, name)
		}
		if seen[name] {
			return fmt.Errorf("%w: duplicate objective %q", ErrBadConfig, name)
		}
		seen[name] = true
	}
	return nil
}

// evalExtras evaluates the extra objectives against the workspace state left
// by the fused Evaluate on m, returning their values in canonical minimized
// form. Nil objs (the two-objective fast path) returns nil without touching
// the workspace.
func evalExtras(ws *metrics.Workspace, m *rr.Matrix, prior []float64, records int, objs []metrics.Objective) ([]float64, error) {
	if len(objs) == 0 {
		return nil, nil
	}
	extra := make([]float64, len(objs))
	if err := ws.EvaluateObjectives(m, prior, records, objs, extra); err != nil {
		return nil, err
	}
	for t, obj := range objs {
		extra[t] = metrics.CanonicalValue(obj, extra[t])
	}
	return extra, nil
}

// Stats summarizes a generation for progress reporting.
type Stats struct {
	// Generation is the zero-based index of the completed generation.
	Generation int
	// Evaluations is the cumulative number of objective evaluations.
	Evaluations int
	// ArchiveSize is the current archive population.
	ArchiveSize int
	// OmegaOccupied is the number of occupied Ω bins.
	OmegaOccupied int
	// OmegaImproved is the number of Ω bins improved this generation.
	OmegaImproved int
	// FrontHypervolume is the hypervolume of the current archive front with
	// reference point (0, refUtility), where refUtility is the utility of
	// the totally uninformative estimate; it grows as the front advances.
	// For runs with extra objectives this remains the privacy/utility
	// projection (see pareto.Hypervolume) so the trend stays comparable
	// across configurations.
	FrontHypervolume float64
	// FrontSize is the number of non-dominated points in the archive.
	FrontSize int
	// Repairs is the number of children needing bound repair (Section V-G)
	// this generation.
	Repairs int
	// RepairPushBack is the total probability mass repair moved off
	// violating entries this generation.
	RepairPushBack float64
	// Redraws is the number of infeasible children replaced by fresh random
	// genomes this generation.
	Redraws int
	// Rejects is the number of children discarded by BoundReject this
	// generation.
	Rejects int
	// Front is the archive in objective space. The slice aliases a scratch
	// buffer the optimizer overwrites every generation: callbacks keeping
	// Stats past their return must use Clone.
	Front []pareto.Point
	// Convergence is the generation's search-quality snapshot: best
	// hypervolume so far, generations since it improved, stall flag, Ω
	// churn and front spread. See the Convergence type.
	Convergence Convergence
}

// Clone returns a deep copy of the stats that is safe to retain after the
// Progress callback returns: the Front slice is copied out of the
// optimizer's reused scratch buffer.
func (s Stats) Clone() Stats {
	if s.Front != nil {
		s.Front = append([]pareto.Point(nil), s.Front...)
	}
	return s
}

// Result is the outcome of a Run.
type Result struct {
	// Front is the Pareto-optimal set the paper outputs: the non-dominated
	// members of Ω (or of the final archive when Ω is disabled), sorted by
	// ascending privacy.
	Front []Individual
	// Archive is the final SPEA2 archive.
	Archive []Individual
	// Generations is the number of generations actually run.
	Generations int
	// Evaluations is the total number of objective evaluations.
	Evaluations int
	// Stagnated reports whether the run stopped on the stagnation criterion
	// rather than the generation budget.
	Stagnated bool
}

// FrontPoints returns the result front in objective space, ascending in
// privacy.
func (res Result) FrontPoints() []pareto.Point {
	pts := make([]pareto.Point, len(res.Front))
	for i, ind := range res.Front {
		pts[i] = ind.Point()
	}
	pareto.SortByPrivacy(pts)
	return pts
}

// Matrices converts the result front into validated RR matrices.
func (res Result) Matrices() ([]*rr.Matrix, error) {
	out := make([]*rr.Matrix, len(res.Front))
	for i, ind := range res.Front {
		m, err := ind.Genome.Matrix()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Optimizer runs the paper's SPEA2-based search for one attribute: the
// generation engine over Genomes, with the Optimizer itself as the problem
// definition. Construct with New.
type Optimizer struct {
	engine[Genome]

	// workers holds one evaluation workspace per configured worker.
	workers []*workerScratch
	// seedGenomes, when non-nil, is injected at the head of the initial
	// population before the random fill — the island scheduler's
	// closed-form anchors. Never set on the plain serial path.
	seedGenomes []Genome
}

// problem is what the generation engine needs to know about a search over
// genomes of type G. The single-attribute search (Optimizer, over Genome) and
// the multi-attribute one (multiProblem, over tuple) are its two definitions.
type problem[G any] interface {
	// randomGenome draws a fresh random genome.
	randomGenome(r *randx.Source) G
	// crossover recombines two parents into two new children.
	crossover(a, b G, r *randx.Source) (G, G, error)
	// mutate applies one mutation in place.
	mutate(g G, r *randx.Source)
	// project maps a genome onto the searched subspace in place, or does
	// nothing.
	project(g G)
	// initialPopulation returns the genomes of Q_0.
	initialPopulation(size int, r *randx.Source) []G
	// realizeGenome repairs g against the bound and evaluates it on worker
	// w's exclusive scratch. Calls with distinct w run concurrently.
	realizeGenome(g G, w int) (individual[G], genomeOutcome)
	// referenceUtility is the utility of the hypervolume reference point.
	referenceUtility() float64
	// backfill reports whether the three-set update also runs in reverse
	// (Omega.ImproveArchive).
	backfill() bool
	// immigrants reports whether every generation replaces immigrantFraction
	// of the population with fresh random genomes.
	immigrants() bool
}

// engine is the generation loop of Section V-A over genomes of type G. It
// owns the search state and its observability; the problem supplies
// everything that depends on the genome.
type engine[G cloner[G]] struct {
	cfg   Config
	prob  problem[G]
	rng   *randx.Source
	omega *optimalSet[G]

	evaluations int

	// Observability plumbing. rec is never nil (OrNop); met is nil without
	// a registry. observed gates all per-generation Stats assembly, timed
	// gates wall-clock sampling, so the bare configuration pays for none of
	// it.
	rec      obs.Recorder
	met      *optimizerMetrics
	observed bool
	timed    bool
	// conv folds per-generation fronts into Convergence snapshots; only
	// consulted when observed.
	conv convergenceTracker
	// frontBuf is the objective-space scratch buffer reused every
	// generation for mating selection and Stats.Front — the reuse is why
	// Progress callbacks must not retain Stats slices without Clone.
	frontBuf []pareto.Point
	// tally accumulates per-generation repair/redraw/reject counts inside
	// realize; stepGeneration resets it at the top of every generation.
	tally generationTally
	// fitnessDur/truncateDur accumulate, when timed, the wall time of the
	// generation's SPEA2 fitness assignments and environmental selection
	// (truncation), the two SPEA2 sub-phases of "select"; their kernels run
	// serially on the generation's goroutine. stepGeneration resets them
	// with the tally.
	fitnessDur  time.Duration
	truncateDur time.Duration

	// Hot-path scratch, persistent across generations. emooScratch backs
	// SPEA2 fitness/selection; unionBuf/unionPts/outcomes are the
	// per-generation population ∪ archive buffers.
	emooScratch *emoo.Scratch
	unionBuf    []individual[G]
	unionPts    []pareto.Point
	outcomes    []genomeOutcome
}

// generationTally counts the feasibility work done by one generation's
// realize pass.
type generationTally struct {
	repairs  int
	pushBack float64
	redraws  int
	rejects  int
}

// New validates the configuration and returns a ready optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	o := &Optimizer{workers: make([]*workerScratch, cfg.Workers)}
	for i := range o.workers {
		o.workers[i] = newWorkerScratch()
	}
	o.engine = newEngine[Genome](cfg, o)
	return o, nil
}

// newEngine returns an engine for a configuration with defaults applied.
func newEngine[G cloner[G]](cfg Config, prob problem[G]) engine[G] {
	rec := obs.OrNop(cfg.Recorder)
	met := newOptimizerMetrics(cfg.Metrics)
	return engine[G]{
		cfg:         cfg,
		prob:        prob,
		rng:         randx.New(cfg.Seed),
		omega:       newOptimalSet[G](cfg.OmegaSize),
		rec:         rec,
		met:         met,
		observed:    cfg.Progress != nil || rec.Enabled() || met != nil,
		timed:       rec.Enabled() || met != nil,
		conv:        newConvergenceTracker(cfg.StagnationLimit),
		emooScratch: emoo.NewScratch(),
	}
}

// Run executes the optimization loop of Section V-A:
//
//  1. fitness assignment over population ∪ archive,
//  2. environmental selection into the next archive,
//  3. binary-tournament mating selection,
//  4. crossover and mutation into the next population,
//  5. bound repair (or rejection),
//  6. three-set update with Ω,
//  7. termination on the generation budget or Ω stagnation.
//
// With Config.Islands > 1 the same loop runs as independent island
// searches with periodic migration; see runIslands.
func (o *Optimizer) Run() (Result, error) {
	if o.cfg.Islands > 1 {
		return o.runIslands()
	}
	if err := ctxErr(o.cfg.Context); err != nil {
		// Already cancelled: return promptly, before paying for the seed
		// population. The front is empty — no work was done.
		return Result{}, cancelError(0, err)
	}
	o.emitStart()
	rs, err := o.search()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Front:       o.front(rs.archive),
		Archive:     rs.archive,
		Generations: rs.gen,
		Evaluations: o.evaluations,
		Stagnated:   rs.stagnated,
	}
	o.emitDone(res, rs.wallStart)
	return res, rs.cancelErr
}

// randomGenome draws a flat-Dirichlet genome.
func (o *Optimizer) randomGenome(r *randx.Source) Genome {
	return NewRandomGenome(len(o.cfg.Prior), r)
}

// crossover is the paper's column-cut crossover.
func (o *Optimizer) crossover(a, b Genome, r *randx.Source) (Genome, Genome, error) {
	return Crossover(a, b, r)
}

// mutate applies the configured mutation style at full scale.
func (o *Optimizer) mutate(g Genome, r *randx.Source) {
	Mutate(g, o.cfg.MutationStyle, 1, r)
}

// project symmetrizes under SymmetricOnly.
func (o *Optimizer) project(g Genome) {
	if o.cfg.SymmetricOnly {
		g.Symmetrize()
	}
}

// initialPopulation is Q_0: any injected seed genomes first (island mode's
// closed-form anchors; nil for the plain search, which stays purely random),
// random genomes for the rest.
func (o *Optimizer) initialPopulation(size int, r *randx.Source) []Genome {
	genomes := make([]Genome, 0, size)
	for _, g := range o.seedGenomes {
		if len(genomes) >= size {
			break
		}
		genomes = append(genomes, g)
	}
	for len(genomes) < size {
		genomes = append(genomes, o.randomGenome(r))
	}
	return genomes
}

// realizeGenome materializes g and evaluates it within the bound through
// worker w's persistent workerScratch, which costs one posterior sweep when
// g meets the bound. A genome that misses it is rejected under BoundReject;
// otherwise it is repaired, re-materialized and evaluated. The extra
// objectives and PrivacyFn, when set, run last.
func (o *Optimizer) realizeGenome(g Genome, w int) (Individual, genomeOutcome) {
	cfg := o.cfg
	sc := o.workers[w]
	var c genomeOutcome
	m, err := sc.matrixFor(g)
	if err != nil {
		return Individual{}, c
	}
	ev, ok, err := sc.ws.EvaluateWithin(m, cfg.Prior, cfg.Records, cfg.Delta)
	if err != nil {
		return Individual{}, c // singular: inversion utility undefined
	}
	if !ok {
		if cfg.BoundMode == BoundReject {
			c.rejected = true
			return Individual{}, c
		}
		feasible, rst := meetBoundStats(g, cfg.Prior, cfg.Delta, cfg.SymmetricOnly, sc.slackFor(g.N()))
		c.repaired = rst.Rounds > 0 || rst.Blended
		c.pushBack = rst.PushBack
		if !feasible {
			return Individual{}, c
		}
		if m, err = sc.matrixFor(g); err != nil {
			return Individual{}, c
		}
		if ev, err = sc.ws.Evaluate(m, cfg.Prior, cfg.Records); err != nil {
			return Individual{}, c
		}
	}
	// Extra objectives run while the workspace still holds this matrix's
	// P*, inverse and per-category MSE; a failing objective voids the
	// individual like a singular matrix does.
	ev.Extra, err = evalExtras(sc.ws, m, cfg.Prior, cfg.Records, cfg.Objectives)
	if err != nil {
		return Individual{}, c
	}
	if cfg.PrivacyFn != nil {
		priv, err := cfg.PrivacyFn(m, cfg.Prior)
		if err != nil {
			return Individual{}, c
		}
		ev.Privacy = priv
	}
	c.ok = true
	return Individual{Genome: g, Eval: ev}, c
}

// referenceUtility is the hypervolume reference: the utility of the noisiest
// evaluable Warner matrix, doubled.
func (o *Optimizer) referenceUtility() float64 {
	return warnerReference([]int{len(o.cfg.Prior)}, func(ms []*rr.Matrix) (float64, error) {
		return metrics.Utility(ms[0], o.cfg.Prior, o.cfg.Records)
	})
}

// backfill is on: the single-attribute search runs the paper's full
// three-set update.
func (o *Optimizer) backfill() bool { return true }

// immigrants is on for the single-attribute search.
func (o *Optimizer) immigrants() bool { return true }

// warnerReference returns twice the utility of the noisiest Warner scheme —
// the same diagonal on every attribute, over sizes — that utility can
// evaluate: an upper anchor for MSE scale. Falls back to 1 if none can be.
func warnerReference(sizes []int, utility func(ms []*rr.Matrix) (float64, error)) float64 {
	ms := make([]*rr.Matrix, len(sizes))
	for _, p := range []float64{0.3, 0.4, 0.5, 0.6} {
		var err error
		for d, n := range sizes {
			if ms[d], err = rr.Warner(n, p); err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		if u, err := utility(ms); err == nil {
			return u * 2
		}
	}
	return 1
}

// runState is one search's loop state between generations. search drives it
// straight through the generation budget; the island scheduler advances W of
// them a migration interval at a time.
type runState[G any] struct {
	population []individual[G]
	archive    []individual[G]
	gen        int  // completed generations
	stagnant   int  // consecutive generations without Ω improvement
	stagnated  bool // stopped on the stagnation criterion
	cancelErr  error
	refUtility float64
	wallStart  time.Time
}

// search runs one population through the generation budget, stopping early
// on cancellation (recorded in the state's cancelErr) or Ω stagnation.
func (o *engine[G]) search() (*runState[G], error) {
	rs, err := o.begin()
	if err != nil {
		return nil, err
	}
	for rs.gen < o.cfg.Generations {
		done, err := o.stepGeneration(rs)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return rs, nil
}

// begin seeds the initial population, projected and realized, and prepares
// the loop state. It does not emit the start event — island mode emits one
// start per island through the tagged recorder, so emission stays with the
// caller.
func (o *engine[G]) begin() (*runState[G], error) {
	st := &runState[G]{}
	if o.timed {
		st.wallStart = time.Now()
	}
	genomes := o.prob.initialPopulation(o.cfg.PopulationSize, o.rng)
	for _, g := range genomes {
		o.prob.project(g)
	}
	population, err := o.realize(genomes)
	if err != nil {
		return nil, err
	}
	st.population = population
	st.refUtility = o.prob.referenceUtility()
	return st, nil
}

// stepGeneration advances the search by one generation. It returns done
// when the run should stop early — cancellation (recorded in rs.cancelErr)
// or Ω stagnation — and a non-nil error only for fatal failures.
func (o *engine[G]) stepGeneration(rs *runState[G]) (bool, error) {
	cfg := o.cfg
	gen := rs.gen
	population, archive := rs.population, rs.archive
	refUtility := rs.refUtility
	// One cancellation check per generation: cheap against the cost of
	// a generation, and the loop state is always consistent at the
	// boundary, so the best-so-far front below stays well-formed.
	if err := ctxErr(cfg.Context); err != nil {
		rs.cancelErr = cancelError(gen, err)
		return true, nil
	}
	{
		o.tally = generationTally{}
		o.fitnessDur, o.truncateDur = 0, 0
		evalsBefore := o.evaluations
		var phases [phaseCount]time.Duration
		var mark time.Time
		if o.timed {
			mark = time.Now()
		}
		lap := func(p int) {
			if o.timed {
				now := time.Now()
				phases[p] = now.Sub(mark)
				mark = now
			}
		}

		// population ∪ archive, in reused scratch buffers: the union is
		// copied into nextArchive below, so nothing retains these slices
		// past the generation.
		union := append(append(o.unionBuf[:0], population...), archive...)
		o.unionBuf = union[:0]
		if cap(o.unionPts) < len(union) {
			o.unionPts = make([]pareto.Point, len(union))
		}
		pts := o.unionPts[:len(union)]
		for i, ind := range union {
			pts[i] = ind.Point()
		}
		selIdx, err := o.selectEnvironment(pts)
		if err != nil {
			return false, err
		}
		nextArchive := make([]individual[G], len(selIdx))
		for k, i := range selIdx {
			nextArchive[k] = union[i]
		}
		// Environmental-selection truncation pressure: how many of the
		// union's non-dominated points did not fit into the archive.
		truncated := 0
		if o.observed {
			if fs := len(pareto.Front(pts)); fs > len(nextArchive) {
				truncated = fs - len(nextArchive)
			}
		}
		lap(phaseSelect)

		// Mating selection over the new archive. frontBuf is the scratch
		// buffer shared with Stats.Front; it is rebuilt from the archive
		// individuals every generation, so consumers mutating or retaining
		// it cannot corrupt the search state.
		o.frontBuf = o.frontBuf[:0]
		for _, ind := range nextArchive {
			o.frontBuf = append(o.frontBuf, ind.Point())
		}
		archivePts := o.frontBuf
		archiveFit := o.assignFitness(archivePts)

		// Crossover + mutation produce the next population; a small
		// immigrant quota keeps exploration pressure away from the current
		// front.
		immigrants := 0
		if o.prob.immigrants() {
			immigrants = int(immigrantFraction * float64(cfg.PopulationSize))
		}
		genomes := make([]G, 0, cfg.PopulationSize)
		for len(genomes) < cfg.PopulationSize-immigrants {
			ia := emoo.BinaryTournament(archiveFit, o.rng)
			ib := emoo.BinaryTournament(archiveFit, o.rng)
			c1, c2, err := o.prob.crossover(nextArchive[ia].Genome, nextArchive[ib].Genome, o.rng)
			if err != nil {
				return false, err
			}
			for _, child := range []G{c1, c2} {
				if len(genomes) >= cfg.PopulationSize-immigrants {
					break
				}
				if o.rng.Float64() < mutationRate {
					for k := 0; k < mutationsPerChild; k++ {
						o.prob.mutate(child, o.rng)
					}
				}
				o.prob.project(child)
				genomes = append(genomes, child)
			}
		}
		for len(genomes) < cfg.PopulationSize {
			g := o.prob.randomGenome(o.rng)
			o.prob.project(g)
			genomes = append(genomes, g)
		}
		lap(phaseVary)

		nextPopulation, err := o.realize(genomes)
		if err != nil {
			return false, err
		}
		lap(phaseEval)

		// Three-set update (Section V-H).
		improved := o.omega.UpdateAll(nextPopulation)
		improved += o.omega.UpdateAll(nextArchive)
		backfilled := 0
		if o.prob.backfill() {
			backfilled = o.omega.ImproveArchive(nextArchive)
		}
		lap(phaseOmega)

		population = nextPopulation
		archive = nextArchive
		rs.population = population
		rs.archive = archive

		if o.observed {
			st := Stats{
				Generation:       gen,
				Evaluations:      o.evaluations,
				ArchiveSize:      len(archive),
				OmegaOccupied:    o.omega.Len(),
				OmegaImproved:    improved,
				FrontHypervolume: pareto.Hypervolume(archivePts, 0, refUtility),
				FrontSize:        len(pareto.Front(archivePts)),
				Repairs:          o.tally.repairs,
				RepairPushBack:   o.tally.pushBack,
				Redraws:          o.tally.redraws,
				Rejects:          o.tally.rejects,
				Front:            archivePts,
			}
			st.Convergence = o.conv.observe(gen, st.FrontHypervolume, o.omega, archivePts)
			o.emitGeneration(st, phases, o.evaluations-evalsBefore, truncated, backfilled)
			o.emitConvergence(st.Convergence)
			if cfg.Progress != nil {
				cfg.Progress(st)
			}
		}

		if cfg.StagnationLimit > 0 {
			if improved == 0 {
				rs.stagnant++
				if rs.stagnant >= cfg.StagnationLimit {
					rs.gen = gen + 1
					rs.stagnated = true
					return true, nil
				}
			} else {
				rs.stagnant = 0
			}
		}
	}
	rs.gen = gen + 1
	return false, nil
}

// front is the search's output set: the Pareto-optimal members of Ω, or of
// archive when Ω is disabled (the ablation), cloned.
func (o *engine[G]) front(archive []individual[G]) []individual[G] {
	if o.omega.Enabled() {
		return o.omega.FrontSnapshot()
	}
	pts := make([]pareto.Point, len(archive))
	for i, ind := range archive {
		pts[i] = ind.Point()
	}
	idx := pareto.Front(pts)
	out := make([]individual[G], 0, len(idx))
	for _, i := range idx {
		out = append(out, individual[G]{Genome: archive[i].Genome.Clone(), Eval: archive[i].Eval})
	}
	return out
}

// assignFitness computes the configured engine's fitness over points. The
// SPEA2 path runs on the engine's persistent scratch: the returned Fitness
// aliases it and is valid until the next assignFitness or selectEnvironment
// call.
func (o *engine[G]) assignFitness(pts []pareto.Point) emoo.Fitness {
	if o.cfg.Engine == EngineNSGA2 {
		return emoo.NSGA2Fitness(pts)
	}
	var mark time.Time
	if o.timed {
		mark = time.Now()
	}
	fit := o.emooScratch.AssignFitness(pts, spea2Config)
	if o.timed {
		o.fitnessDur += time.Since(mark)
	}
	return fit
}

// selectEnvironment runs the configured engine's environmental selection.
// The returned index slice aliases the scratch and must be consumed before
// the next scratch call.
func (o *engine[G]) selectEnvironment(pts []pareto.Point) ([]int, error) {
	if o.cfg.Engine == EngineNSGA2 {
		return emoo.NSGA2Select(pts, o.cfg.ArchiveSize)
	}
	fit := o.assignFitness(pts)
	var mark time.Time
	if o.timed {
		mark = time.Now()
	}
	sel, err := o.emooScratch.SelectEnvironment(pts, fit, o.cfg.ArchiveSize, spea2Config)
	if o.timed {
		o.truncateDur += time.Since(mark)
	}
	return sel, err
}

// realize repairs, evaluates and — where evaluation is impossible (singular
// matrix, unrepairable bound) — replaces genomes with fresh random feasible
// ones. Repair and evaluation are pure, so they fan out through par.For,
// each worker evaluating through its own persistent scratch; genome
// replacement draws from the sequential RNG to keep runs deterministic.
func (o *engine[G]) realize(genomes []G) ([]individual[G], error) {
	cfg := o.cfg
	out := make([]individual[G], len(genomes))
	if cap(o.outcomes) < len(genomes) {
		o.outcomes = make([]genomeOutcome, len(genomes))
	}
	oc := o.outcomes[:len(genomes)]
	par.For(cfg.Workers, len(genomes), func(w, i int) {
		out[i], oc[i] = o.prob.realizeGenome(genomes[i], w)
	})
	o.evaluations += len(genomes)
	for i := range oc {
		o.tally.add(oc[i])
	}

	// Replace failures sequentially (deterministic RNG use), re-drawing
	// until feasible. A fresh Dirichlet genome repairs successfully with
	// overwhelming probability, so this loop terminates quickly; a safety
	// budget guards pathological configurations.
	const maxRedraws = 10000
	redraws := 0
	for i := range out {
		for !oc[i].ok {
			if redraws++; redraws > maxRedraws {
				return nil, fmt.Errorf("%w: could not generate a feasible matrix for delta=%v", ErrInfeasibleBound, cfg.Delta)
			}
			g := o.prob.randomGenome(o.rng)
			o.prob.project(g)
			out[i], oc[i] = o.prob.realizeGenome(g, 0)
			o.evaluations++
			o.tally.redraws++
			o.tally.add(oc[i])
		}
	}
	return out, nil
}

// genomeOutcome is one genome's trip through realize, for tallying.
type genomeOutcome struct {
	ok       bool
	repaired bool
	pushBack float64
	rejected bool
}

// add folds one outcome into the generation's tally.
func (t *generationTally) add(c genomeOutcome) {
	if c.repaired {
		t.repairs++
	}
	t.pushBack += c.pushBack
	if c.rejected {
		t.rejects++
	}
}
