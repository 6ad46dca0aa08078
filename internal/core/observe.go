package core

import (
	"time"

	"optrr/internal/obs"
)

// This file is the optimizer's observability seam: it maps the search loop
// of Section V-A onto structured trace events and live metrics. The mapping
// to the paper's phases is one-to-one — fitness assignment + environmental
// selection ("select"), mating selection + crossover/mutation ("vary"),
// bound repair + objective evaluation ("eval", Section V-G), and the
// three-set Ω update ("omega", Section V-H).

// Phase indices for per-generation wall-time sampling.
const (
	phaseSelect = iota
	phaseVary
	phaseEval
	phaseOmega
	phaseCount
)

// optimizerMetrics caches the registry metric pointers the hot loop updates,
// so steady-state updates never touch the registry lock. All names share the
// "optimizer." prefix.
type optimizerMetrics struct {
	evaluations *obs.Counter
	repairs     *obs.Counter
	redraws     *obs.Counter
	rejects     *obs.Counter
	pushBack    *obs.Gauge // cumulative repair magnitude
	generation  *obs.Gauge
	archiveSize *obs.Gauge
	omegaBins   *obs.Gauge
	frontSize   *obs.Gauge
	hypervolume *obs.Gauge
	workers     *obs.Gauge
	genSeconds  *obs.Histogram

	// Convergence snapshot mirrors (see convergence.go): the best
	// hypervolume reached, generations since it improved, a 0/1 stall
	// flag, front spread, and Ω churn counters.
	bestHypervolume *obs.Gauge
	staleGens       *obs.Gauge
	stalled         *obs.Gauge
	spread          *obs.Gauge
	omegaInserts    *obs.Counter
	omegaEvictions  *obs.Counter
}

// newOptimizerMetrics registers the optimizer metrics on reg; nil in, nil
// out.
func newOptimizerMetrics(reg *obs.Registry) *optimizerMetrics {
	if reg == nil {
		return nil
	}
	return &optimizerMetrics{
		evaluations: reg.Counter("optimizer.evaluations"),
		repairs:     reg.Counter("optimizer.repairs"),
		redraws:     reg.Counter("optimizer.redraws"),
		rejects:     reg.Counter("optimizer.rejects"),
		pushBack:    reg.Gauge("optimizer.repair_push_back"),
		generation:  reg.Gauge("optimizer.generation"),
		archiveSize: reg.Gauge("optimizer.archive_size"),
		omegaBins:   reg.Gauge("optimizer.omega_occupied"),
		frontSize:   reg.Gauge("optimizer.front_size"),
		hypervolume: reg.Gauge("optimizer.hypervolume"),
		workers:     reg.Gauge("optimizer.workers"),
		genSeconds: reg.Histogram("optimizer.generation_seconds",
			[]float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}),
		bestHypervolume: reg.Gauge("optimizer.convergence.best_hypervolume"),
		staleGens:       reg.Gauge("optimizer.convergence.stale_generations"),
		stalled:         reg.Gauge("optimizer.convergence.stalled"),
		spread:          reg.Gauge("optimizer.convergence.spread"),
		omegaInserts:    reg.Counter("optimizer.omega_inserts"),
		omegaEvictions:  reg.Counter("optimizer.omega_evictions"),
	}
}

// emitStart records the run configuration. The effective worker count (the
// resolved Config.Workers that parallel evaluation uses) and the effective
// island topology go to both the registry gauges and the start event.
func (o *Optimizer) emitStart() {
	if m := o.met; m != nil {
		m.workers.Set(float64(o.cfg.Workers))
	}
	if !o.rec.Enabled() {
		return
	}
	cfg := o.cfg
	islands := cfg.Islands
	if islands < 1 {
		islands = 1
	}
	o.rec.Record("optimizer.start", obs.Fields{
		"categories":    len(cfg.Prior),
		"records":       cfg.Records,
		"delta":         cfg.Delta,
		"population":    cfg.PopulationSize,
		"archive":       cfg.ArchiveSize,
		"omega":         cfg.OmegaSize,
		"generations":   cfg.Generations,
		"engine":        cfg.Engine.String(),
		"bound_mode":    cfg.BoundMode.String(),
		"seed":          cfg.Seed,
		"workers":       cfg.Workers,
		"islands":       islands,
		"migrate_every": cfg.MigrateEvery,
	})
}

// emitGeneration publishes one completed generation to the recorder and the
// metrics registry. The Stats clone detaches the event from the optimizer's
// reused Front scratch buffer: recorders may retain Fields indefinitely.
func (o *engine[G]) emitGeneration(st Stats, phases [phaseCount]time.Duration, evalsGen, truncated, backfilled int) {
	if m := o.met; m != nil {
		m.evaluations.Add(int64(evalsGen))
		m.repairs.Add(int64(st.Repairs))
		m.redraws.Add(int64(st.Redraws))
		m.rejects.Add(int64(st.Rejects))
		m.pushBack.Add(st.RepairPushBack)
		m.generation.Set(float64(st.Generation))
		m.archiveSize.Set(float64(st.ArchiveSize))
		m.omegaBins.Set(float64(st.OmegaOccupied))
		m.frontSize.Set(float64(st.FrontSize))
		m.hypervolume.Set(st.FrontHypervolume)
		var total time.Duration
		for _, d := range phases {
			total += d
		}
		m.genSeconds.Observe(total.Seconds())
	}
	if !o.rec.Enabled() {
		return
	}
	st = st.Clone()
	o.rec.Record("optimizer.generation", obs.Fields{
		"gen":            st.Generation,
		"evals":          st.Evaluations,
		"evals_gen":      evalsGen,
		"archive":        st.ArchiveSize,
		"front_size":     st.FrontSize,
		"front":          st.Front,
		"hypervolume":    st.FrontHypervolume,
		"omega_occupied": st.OmegaOccupied,
		"omega_improved": st.OmegaImproved,
		"backfilled":     backfilled,
		"truncated":      truncated,
		"repairs":        st.Repairs,
		"push_back":      st.RepairPushBack,
		"redraws":        st.Redraws,
		"rejects":        st.Rejects,
		"select_ms":      ms(phases[phaseSelect]),
		"vary_ms":        ms(phases[phaseVary]),
		"eval_ms":        ms(phases[phaseEval]),
		"omega_ms":       ms(phases[phaseOmega]),
		// SPEA2 sub-phases: fitness assignment and environmental
		// selection (truncation). Both overlap select_ms / vary_ms, so
		// they are reported separately rather than added to the phase
		// timeline.
		"fitness_ms":  ms(o.fitnessDur),
		"truncate_ms": ms(o.truncateDur),
		"workers":     o.cfg.Workers,
	})
}

// emitConvergence publishes one generation's convergence snapshot: the
// "optimizer.convergence" trace event plus the registry mirrors. Like
// emitGeneration it is free when neither a recorder nor a registry is
// attached.
func (o *engine[G]) emitConvergence(c Convergence) {
	if m := o.met; m != nil {
		m.bestHypervolume.Set(c.BestHypervolume)
		m.staleGens.Set(float64(c.SinceImprovement))
		if c.Stalled {
			m.stalled.Set(1)
		} else {
			m.stalled.Set(0)
		}
		m.spread.Set(c.Spread)
		m.omegaInserts.Add(int64(c.OmegaInserts))
		m.omegaEvictions.Add(int64(c.OmegaEvictions))
	}
	if !o.rec.Enabled() {
		return
	}
	o.rec.Record("optimizer.convergence", obs.Fields{
		"gen":               c.Generation,
		"hypervolume":       c.Hypervolume,
		"best_hypervolume":  c.BestHypervolume,
		"improved":          c.Improved,
		"since_improvement": c.SinceImprovement,
		"stalled":           c.Stalled,
		"omega_inserts":     c.OmegaInserts,
		"omega_evictions":   c.OmegaEvictions,
		"spread":            c.Spread,
	})
}

// emitDone records the run outcome.
func (o *Optimizer) emitDone(res Result, wallStart time.Time) {
	if !o.rec.Enabled() {
		return
	}
	o.rec.Record("optimizer.done", obs.Fields{
		"generations": res.Generations,
		"evaluations": res.Evaluations,
		"front_size":  len(res.Front),
		"stagnated":   res.Stagnated,
		"wall_ms":     ms(time.Since(wallStart)),
	})
}

// ms renders a duration as fractional milliseconds for event fields.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
