package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"optrr/internal/obs"
)

// gridBudget is a micro configuration: large enough that the searches do
// real work, small enough that the worker sweep below stays in test time.
func gridBudget() Config {
	return Config{
		Categories:  6,
		Records:     2000,
		Generations: 60,
		WarnerSteps: 60,
		Seed:        1,
	}
}

// gridExperiments picks a cheap but non-trivial subset of the registry: one
// closed-form experiment and two that run the full optimizer.
func gridExperiments(t *testing.T) []Experiment {
	t.Helper()
	var exps []Experiment
	for _, id := range []string{"fact1", "thm2", "fig4a"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestRunGridDeterministicAcrossWorkers is the grid's reproducibility
// contract: every worker count yields deep-equal reports in input order.
func TestRunGridDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep skipped in -short mode")
	}
	exps := gridExperiments(t)
	cfg := gridBudget()
	cfg.Workers = 1
	want := RunGrid(exps, cfg, GridOptions{})
	for i, o := range want {
		if o.Err != nil {
			t.Fatalf("serial cell %s: %v", exps[i].ID, o.Err)
		}
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		cfg.Workers = w
		got := RunGrid(exps, cfg, GridOptions{})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].Experiment.ID != exps[i].ID {
				t.Fatalf("workers=%d: outcome[%d] is %s, want %s", w, i, got[i].Experiment.ID, exps[i].ID)
			}
			if got[i].Err != nil {
				t.Fatalf("workers=%d cell %s: %v", w, exps[i].ID, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Report, want[i].Report) {
				t.Errorf("workers=%d: report %s differs from the serial run", w, exps[i].ID)
			}
		}
	}
}

// TestRunGridTelemetry checks the cell events and counters: one
// experiment.cell per cell, a grid event carrying the worker count, and the
// registry tallies.
func TestRunGridTelemetry(t *testing.T) {
	exps := gridExperiments(t)[:2] // fact1 + thm2: no optimizer runs needed
	cfg := Config{WarnerSteps: 60, Generations: 1, Seed: 1, Workers: 2}
	rec := obs.NewMemory()
	reg := obs.NewRegistry()
	out := RunGrid(exps, cfg, GridOptions{Recorder: rec, Registry: reg})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("cell %s: %v", exps[i].ID, o.Err)
		}
		if !o.Passed() {
			t.Errorf("cell %s did not pass", exps[i].ID)
		}
	}
	grid := rec.Named("experiment.grid")
	if len(grid) != 1 {
		t.Fatalf("%d experiment.grid events, want 1", len(grid))
	}
	if got := grid[0].Fields["workers"]; got != 2 {
		t.Errorf("grid workers field = %v, want 2", got)
	}
	cells := rec.Named("experiment.cell")
	if len(cells) != len(exps) {
		t.Fatalf("%d experiment.cell events, want %d", len(cells), len(exps))
	}
	seen := map[string]bool{}
	for _, ev := range cells {
		id, _ := ev.Fields["id"].(string)
		seen[id] = true
		if ok, _ := ev.Fields["ok"].(bool); !ok {
			t.Errorf("cell %s recorded ok=false", id)
		}
	}
	for _, e := range exps {
		if !seen[e.ID] {
			t.Errorf("no experiment.cell event for %s", e.ID)
		}
	}
	if got := reg.Counter("experiments.cells.run").Value(); got != int64(len(exps)) {
		t.Errorf("cells.run = %d, want %d", got, len(exps))
	}
	if got := reg.Gauge("experiments.workers").Value(); got != 2 {
		t.Errorf("workers gauge = %v, want 2", got)
	}
}

// TestRunGridCancelledContext: cells picked up after cancellation are marked
// Skipped with the context error, never run.
func TestRunGridCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := gridExperiments(t)
	cfg := gridBudget()
	cfg.Context = ctx
	cfg.Workers = 2
	reg := obs.NewRegistry()
	out := RunGrid(exps, cfg, GridOptions{Registry: reg})
	for i, o := range out {
		if !o.Skipped {
			t.Errorf("cell %s ran under a cancelled context", exps[i].ID)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %s error = %v, want context.Canceled", exps[i].ID, o.Err)
		}
	}
	if got := reg.Counter("experiments.cells.skipped").Value(); got != int64(len(exps)) {
		t.Errorf("cells.skipped = %d, want %d", got, len(exps))
	}
}
