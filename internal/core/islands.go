package core

import (
	"math"
	"time"

	"optrr/internal/obs"
	"optrr/internal/par"
	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// This file is the island-model scheduler: with Config.Islands = W > 1 the
// search runs as W independent sub-populations, each a full SPEA2+Ω search
// (its own RNG stream, evaluation scratch and local Ω archive) over
// PopulationSize/W individuals. Every MigrateEvery generations the islands
// synchronize: each exports its migrationSize best front members to its ring
// neighbor, and every local Ω folds into the global Ω under the paper's
// three-set update rule. Splitting the population cuts the O(n²)–O(n³)
// SPEA2 selection kernels by ~W× while the ring keeps the islands from
// diverging into duplicated work — parallel in wall-clock when cores exist,
// and cheaper in total instructions even on one core.
//
// Determinism: island i draws from randx.Stream(Seed, i), islands advance in
// lockstep epochs, and migration + Ω folding run sequentially in island
// order after a barrier — so the result depends only on (Seed, Islands,
// MigrateEvery) and the rest of the Config, never on scheduling. The serial
// path (Islands <= 1) does not share any of this machinery and stays
// bit-for-bit identical to previous releases.

// islandState couples one island's optimizer with its loop state.
type islandState struct {
	idx  int
	opt  *Optimizer
	rs   *runState[Genome]
	done bool
	err  error // fatal error; the epoch aborts
}

// runIslands drives the island-model search. Called by Run when
// cfg.Islands > 1.
func (o *Optimizer) runIslands() (Result, error) {
	cfg := o.cfg
	if err := ctxErr(cfg.Context); err != nil {
		return Result{}, cancelError(0, err)
	}
	o.emitStart()
	var wallStart time.Time
	if o.timed {
		wallStart = time.Now()
	}

	islands, err := o.buildIslands()
	if err != nil {
		return Result{}, err
	}
	refUtility := o.referenceUtility()

	var cancelErr error
	epoch := 0
	for {
		if err := ctxErr(cfg.Context); err != nil {
			cancelErr = cancelError(maxGen(islands), err)
			break
		}
		epochEnd := (epoch + 1) * cfg.MigrateEvery
		if epochEnd > cfg.Generations {
			epochEnd = cfg.Generations
		}
		// Advance every live island to the epoch boundary, one worker per
		// island. Islands share nothing while stepping; the barrier below
		// restores a deterministic global state before migration.
		var stepping []*islandState
		for _, is := range islands {
			if !is.done {
				stepping = append(stepping, is)
			}
		}
		par.For(len(stepping), len(stepping), func(_, i int) {
			stepping[i].advanceTo(epochEnd)
		})
		for _, is := range islands {
			if is.err != nil {
				return Result{}, is.err
			}
		}

		// Sequential, island-ordered: ring migration, then the global Ω
		// fold under the unchanged per-bin update rule.
		o.migrate(islands)
		for _, is := range islands {
			o.omega.Fold(is.opt.omega)
		}
		o.emitEpoch(epoch, islands, refUtility)
		epoch++

		live := false
		for _, is := range islands {
			if !is.done {
				live = true
			}
		}
		if !live {
			break
		}
	}

	return o.finishIslands(islands, wallStart), cancelErr
}

// buildIslands constructs the W sub-optimizers and seeds their initial
// populations. Each island search is the plain single-population loop over
// a PopulationSize/W slice of the budget, with its own decorrelated RNG
// stream and — as diversity/correctness anchors — the closed-form
// DP-optimal constant-diagonal matrices of Holohan et al. dealt across
// islands.
func (o *Optimizer) buildIslands() ([]*islandState, error) {
	cfg := o.cfg
	w := cfg.Islands
	subPop := cfg.PopulationSize / w
	if subPop < 8 {
		subPop = 8
	}
	subArch := cfg.ArchiveSize / w
	if subArch < 8 {
		subArch = 8
	}
	subWorkers := cfg.Workers / w
	if subWorkers < 1 {
		subWorkers = 1
	}
	islands := make([]*islandState, w)
	for i := range islands {
		sub := cfg
		sub.Islands = 0
		sub.MigrateEvery = 0
		sub.PopulationSize = subPop
		sub.ArchiveSize = subArch
		sub.Workers = subWorkers
		sub.Seed = randx.StreamSeed(cfg.Seed, uint64(i))
		sub.Progress = nil
		sub.Metrics = nil
		sub.Recorder = nil
		if o.rec.Enabled() {
			sub.Recorder = islandRecorder{rec: o.rec, island: i}
		}
		opt, err := New(sub)
		if err != nil {
			return nil, err
		}
		opt.seedGenomes = closedFormSeeds(len(cfg.Prior), i, w, subPop/2)
		opt.emitStart()
		rs, err := opt.begin()
		if err != nil {
			return nil, err
		}
		islands[i] = &islandState{idx: i, opt: opt, rs: rs}
	}
	return islands, nil
}

// advanceTo steps the island until it reaches the target generation, stops
// early (stagnation, cancellation) or fails.
func (is *islandState) advanceTo(target int) {
	budget := is.opt.cfg.Generations
	if target > budget {
		target = budget
	}
	for !is.done && is.rs.gen < target {
		done, err := is.opt.stepGeneration(is.rs)
		if err != nil {
			is.err = err
			is.done = true
			return
		}
		if done {
			is.done = true
		}
	}
	if is.rs.gen >= budget {
		is.done = true
	}
}

// migrate runs one synchronous ring exchange: every island's exports are
// drawn from its pre-migration state, then island i's emigrants join island
// (i+1) mod W — replacing the tail of the receiver's population and
// entering its local Ω — so the exchange is order-independent and
// deterministic.
func (o *Optimizer) migrate(islands []*islandState) {
	exports := make([][]Individual, len(islands))
	for i, is := range islands {
		exports[i] = is.emigrants(migrationSize)
	}
	for i, out := range exports {
		recv := islands[(i+1)%len(islands)]
		pop := recv.rs.population
		for j, ind := range out {
			if j >= len(pop) {
				break
			}
			pop[len(pop)-1-j] = Individual{Genome: ind.Genome.Clone(), Eval: ind.Eval}
		}
		recv.opt.omega.UpdateAll(out)
	}
}

// emigrants picks k members spread evenly across the island's current
// privacy range (its local Ω bins, or the archive front when Ω is
// disabled), so a migration carries the whole range rather than one corner.
// The returned genomes alias live island state — migrate clones whatever a
// receiver keeps — so a migration epoch copies only the matrices that
// actually move.
func (is *islandState) emigrants(k int) []Individual {
	if out := is.opt.omega.spread(k); len(out) > 0 {
		return out
	}
	archive := is.rs.archive
	pts := make([]pareto.Point, len(archive))
	for i, ind := range archive {
		pts[i] = ind.Point()
	}
	var front []Individual
	for _, i := range pareto.Front(pts) {
		front = append(front, archive[i])
	}
	if len(front) <= k {
		return front
	}
	out := make([]Individual, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, front[j*(len(front)-1)/(k-1)])
	}
	return out
}

// finishIslands folds the island states into the run's Result: the global Ω
// front (already fed by every epoch's fold), the concatenated archives, and
// the summed evaluation counts. Generations reports the deepest island —
// the wall-clock-equivalent depth of the search.
func (o *Optimizer) finishIslands(islands []*islandState, wallStart time.Time) Result {
	archive := make([]Individual, 0, len(islands)*len(islands[0].rs.archive))
	evaluations := 0
	stagnated := len(islands) > 0
	for _, is := range islands {
		archive = append(archive, is.rs.archive...)
		evaluations += is.opt.evaluations
		if !is.rs.stagnated {
			stagnated = false
		}
	}
	o.evaluations = evaluations
	res := Result{
		Front:       o.front(archive),
		Archive:     archive,
		Generations: maxGen(islands),
		Evaluations: evaluations,
		Stagnated:   stagnated,
	}
	o.emitDone(res, wallStart)
	return res
}

// maxGen returns the deepest completed generation across islands.
func maxGen(islands []*islandState) int {
	gen := 0
	for _, is := range islands {
		if is.rs.gen > gen {
			gen = is.rs.gen
		}
	}
	return gen
}

// emitEpoch publishes one migration epoch: the "optimizer.migration" trace
// event, the global convergence snapshot, the registry mirrors, and the
// per-epoch Progress callback. This is the island-mode analogue of the
// serial per-generation emission.
func (o *Optimizer) emitEpoch(epoch int, islands []*islandState, refUtility float64) {
	if !o.observed {
		return
	}
	gen := maxGen(islands)
	front := o.omega.FrontSnapshot()
	if len(front) == 0 {
		return
	}
	pts := make([]pareto.Point, len(front))
	for i, ind := range front {
		pts[i] = ind.Point()
	}
	evaluations := 0
	for _, is := range islands {
		evaluations += is.opt.evaluations
	}
	st := Stats{
		Generation:       gen - 1,
		Evaluations:      evaluations,
		ArchiveSize:      0,
		OmegaOccupied:    o.omega.Len(),
		FrontHypervolume: pareto.Hypervolume(pts, 0, refUtility),
		FrontSize:        len(pts),
		Front:            pts,
	}
	for _, is := range islands {
		st.ArchiveSize += len(is.rs.archive)
	}
	st.Convergence = o.conv.observe(st.Generation, st.FrontHypervolume, o.omega, pts)
	if m := o.met; m != nil {
		m.generation.Set(float64(st.Generation))
		m.archiveSize.Set(float64(st.ArchiveSize))
		m.omegaBins.Set(float64(st.OmegaOccupied))
		m.frontSize.Set(float64(st.FrontSize))
		m.hypervolume.Set(st.FrontHypervolume)
		// Island sub-optimizers run without a registry, so the evaluation
		// counter advances here, one delta per epoch.
		m.evaluations.Add(int64(evaluations - o.evaluations))
	}
	o.evaluations = evaluations
	o.emitConvergence(st.Convergence)
	if o.rec.Enabled() {
		o.rec.Record("optimizer.migration", obs.Fields{
			"epoch":          epoch,
			"gen":            gen,
			"islands":        len(islands),
			"exports":        migrationSize,
			"omega_occupied": st.OmegaOccupied,
			"hypervolume":    st.FrontHypervolume,
			"front_size":     st.FrontSize,
			"evals":          evaluations,
		})
	}
	if o.cfg.Progress != nil {
		o.cfg.Progress(st)
	}
}

// islandRecorder tags one island's trace stream: every event gains an
// "island" field and moves under the "optimizer.island." prefix, so a
// combined trace separates cleanly into the top-level run (optimizer.start,
// optimizer.migration, optimizer.done) and per-island detail.
type islandRecorder struct {
	rec    obs.Recorder
	island int
}

// Enabled implements obs.Recorder.
func (r islandRecorder) Enabled() bool { return r.rec.Enabled() }

// Record implements obs.Recorder.
func (r islandRecorder) Record(event string, fields obs.Fields) {
	const prefix = "optimizer."
	if len(event) > len(prefix) && event[:len(prefix)] == prefix {
		event = "optimizer.island." + event[len(prefix):]
	}
	fields["island"] = r.island
	r.rec.Record(event, fields)
}

// closedFormEpsilons is the ε grid of the closed-form anchors: log-spaced
// from nearly-uniform (high privacy) to nearly-identity (high utility).
var closedFormEpsilons = []float64{0.25, 0.5, 1, 2, 4, 8}

// closedFormSeeds returns island i's share of the closed-form seed family:
// the constant-diagonal k-RR matrices γ(ε) = e^ε/(e^ε+n−1) that Holohan et
// al. prove optimal among ε-differentially-private randomised-response
// mechanisms. Dealt round-robin across islands, they anchor each island in
// a different privacy regime; a seed that violates the δ bound is repaired
// or replaced by the normal feasibility machinery like any other genome.
func closedFormSeeds(n, island, islands, max int) []Genome {
	if max <= 0 {
		return nil
	}
	var out []Genome
	for t, eps := range closedFormEpsilons {
		if t%islands != island || len(out) >= max {
			continue
		}
		gamma := math.Exp(eps) / (math.Exp(eps) + float64(n-1))
		out = append(out, diagonalGenome(n, gamma))
	}
	return out
}

// diagonalGenome builds the genome of the constant-diagonal scheme: γ on
// the diagonal, (1−γ)/(n−1) elsewhere (the k-RR / Warner family, see
// rr.Warner).
func diagonalGenome(n int, gamma float64) Genome {
	off := (1 - gamma) / float64(n-1)
	g := make(Genome, n)
	for i := range g {
		col := make([]float64, n)
		for j := range col {
			col[j] = off
		}
		col[i] = gamma
		g[i] = col
	}
	return g
}
