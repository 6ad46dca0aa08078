package experiments

import (
	"time"

	"optrr/internal/obs"
	"optrr/internal/par"
)

// Outcome is the result of one grid cell: the experiment together with its
// report (or error) and wall-clock cost. Skipped marks cells that never ran
// because the run's context was already cancelled when the cell was picked
// up.
type Outcome struct {
	Experiment Experiment
	Report     *Report
	Err        error
	Elapsed    time.Duration
	Skipped    bool
}

// Passed reports whether the cell produced a report with every check green.
func (o Outcome) Passed() bool {
	return o.Err == nil && !o.Skipped && o.Report != nil && o.Report.Passed()
}

// GridOptions carries the optional observability hooks of a grid run.
type GridOptions struct {
	// Recorder receives one "experiment.cell" event per completed cell
	// (worker id, elapsed time, outcome) plus an "experiment.grid" event at
	// the start. Nil means no trace.
	Recorder obs.Recorder
	// Registry, when non-nil, counts cells into "experiments.cells.run" and
	// "experiments.cells.skipped" and gauges the effective worker count as
	// "experiments.workers".
	Registry *obs.Registry
}

// RunGrid runs every experiment of the grid under the shared configuration,
// fanning the cells out over cfg.Workers goroutines (zero means GOMAXPROCS).
// The returned outcomes are in input order regardless of completion order.
//
// Every cell receives cfg verbatim — exactly what the historical serial loop
// passed — and each experiment derives its own random streams from
// Config.Seed internally, so the figures are bit-for-bit identical to a
// serial run at every worker count. Cells picked up after cfg.Context is
// cancelled are marked Skipped instead of running.
func RunGrid(exps []Experiment, cfg Config, opts GridOptions) []Outcome {
	out := make([]Outcome, len(exps))
	if len(exps) == 0 {
		return out
	}
	workers := par.Workers(cfg.Workers, len(exps))
	rec := obs.OrNop(opts.Recorder)
	if opts.Registry != nil {
		opts.Registry.Gauge("experiments.workers").Set(float64(workers))
	}
	if rec.Enabled() {
		rec.Record("experiment.grid", obs.Fields{
			"cells":   len(exps),
			"workers": workers,
		})
	}

	// Cells are claimed one at a time rather than pre-partitioned: the cost
	// of a cell varies by orders of magnitude (fact1 is instant, fig4a runs a
	// full EMO search), so static assignment would leave workers idle.
	par.For(workers, len(exps), func(worker, i int) {
		out[i] = runCell(exps[i], cfg, worker, rec, opts.Registry)
	})
	return out
}

// runCell executes one grid cell and records its telemetry.
func runCell(e Experiment, cfg Config, worker int, rec obs.Recorder, reg *obs.Registry) Outcome {
	o := Outcome{Experiment: e}
	if ctx := cfg.Context; ctx != nil && ctx.Err() != nil {
		o.Err = ctx.Err()
		o.Skipped = true
		if reg != nil {
			reg.Counter("experiments.cells.skipped").Inc()
		}
		return o
	}
	start := time.Now()
	o.Report, o.Err = e.Run(cfg)
	o.Elapsed = time.Since(start)
	if reg != nil {
		reg.Counter("experiments.cells.run").Inc()
	}
	if rec.Enabled() {
		rec.Record("experiment.cell", obs.Fields{
			"id":     e.ID,
			"worker": worker,
			"ms":     float64(o.Elapsed.Microseconds()) / 1e3,
			"ok":     o.Err == nil,
		})
	}
	return o
}
