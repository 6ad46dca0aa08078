package core

import (
	"errors"
	"math"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/rr"
)

// evalsEqual compares evaluations bit-for-bit, extras included.
func evalsEqual(a, b metrics.Evaluation) bool {
	if a.Privacy != b.Privacy || a.Utility != b.Utility ||
		a.MaxPosterior != b.MaxPosterior || len(a.Extra) != len(b.Extra) {
		return false
	}
	for i := range a.Extra {
		if a.Extra[i] != b.Extra[i] {
			return false
		}
	}
	return true
}

// testObjectives resolves the named built-ins, failing the test otherwise.
func testObjectives(t testing.TB, names ...string) []metrics.Objective {
	t.Helper()
	objs := make([]metrics.Objective, len(names))
	for i, name := range names {
		o, ok := metrics.ObjectiveByName(name)
		if !ok {
			t.Fatalf("objective %q not registered", name)
		}
		objs[i] = o
	}
	return objs
}

// triConfig is a small tri-objective (privacy, utility, ldp-epsilon)
// configuration that runs in well under a second.
func triConfig(t testing.TB) Config {
	cfg := DefaultConfig([]float64{0.5, 0.3, 0.2}, 10000, 0.75)
	cfg.PopulationSize = 16
	cfg.ArchiveSize = 16
	cfg.OmegaSize = 200
	cfg.Generations = 25
	cfg.Seed = 7
	cfg.Objectives = testObjectives(t, "ldp-epsilon")
	return cfg
}

// TestRunTriObjective drives the full optimizer with one extra objective:
// the front must be a valid 3-D Pareto set with finite canonical extras.
func TestRunTriObjective(t *testing.T) {
	opt, err := New(triConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	pts := res.FrontPoints()
	for i, p := range pts {
		if p.Dim() != 3 {
			t.Fatalf("point %d: dim %d, want 3", i, p.Dim())
		}
		eps := p.ExtraAt(0)
		if math.IsNaN(eps) || eps < 0 || eps > metrics.LDPEpsilonCap {
			t.Fatalf("point %d: ldp-epsilon %v outside [0, %v]", i, eps, metrics.LDPEpsilonCap)
		}
	}
	// The front must be mutually non-dominated in 3-D.
	for i := range pts {
		for j := range pts {
			if i != j && pts[i].Dominates(pts[j]) {
				t.Fatalf("front point %d dominates %d", i, j)
			}
		}
	}
	// Each individual's Extra must match an independent evaluation of the
	// objective on its matrix (canonical form; ldp-epsilon is Minimize, so
	// no negation).
	ms, err := res.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	ws := metrics.NewWorkspace()
	obj := testObjectives(t, "ldp-epsilon")[0]
	cfg := triConfig(t)
	for i, ind := range res.Front {
		if len(ind.Eval.Extra) != 1 {
			t.Fatalf("individual %d: %d extras, want 1", i, len(ind.Eval.Extra))
		}
		if _, err := ws.Evaluate(ms[i], cfg.Prior, cfg.Records); err != nil {
			t.Fatal(err)
		}
		want, err := obj.Evaluate(ws, ms[i], cfg.Prior, cfg.Records)
		if err != nil {
			t.Fatal(err)
		}
		if ind.Eval.Extra[0] != want {
			t.Fatalf("individual %d: stored extra %v, re-evaluated %v", i, ind.Eval.Extra[0], want)
		}
	}
}

// TestRunTriObjectiveDeterministicAcrossWorkers extends the worker-count
// determinism pin to k-dim runs: same seed, different Workers, identical
// front.
func TestRunTriObjectiveDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []pareto.Point {
		cfg := triConfig(t)
		cfg.Workers = workers
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FrontPoints()
	}
	want := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d differs: %+v vs %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestDefaultRunHasNoExtras pins the fast path: without configured
// objectives every evaluation and point stays two-dimensional.
func TestDefaultRunHasNoExtras(t *testing.T) {
	cfg := triConfig(t)
	cfg.Objectives = nil
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, ind := range res.Front {
		if ind.Eval.Extra != nil {
			t.Fatalf("individual %d: Extra = %v, want nil", i, ind.Eval.Extra)
		}
		if d := ind.Point().Dim(); d != 2 {
			t.Fatalf("individual %d: dim %d, want 2", i, d)
		}
	}
}

// TestValidateObjectives covers the configuration guard rails.
func TestValidateObjectives(t *testing.T) {
	base := triConfig(t)
	noop := func(*metrics.Workspace, *rr.Matrix, []float64, int) (float64, error) { return 0, nil }

	cfg := base
	cfg.Objectives = make([]metrics.Objective, pareto.MaxExtraObjectives+1)
	for i := range cfg.Objectives {
		cfg.Objectives[i] = metrics.NewObjective("x", metrics.Minimize, noop)
	}
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("over-capacity objectives: err = %v", err)
	}

	cfg = base
	cfg.Objectives = []metrics.Objective{nil}
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil objective: err = %v", err)
	}

	cfg = base
	cfg.Objectives = []metrics.Objective{metrics.NewObjective("privacy", metrics.Minimize, noop)}
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("reserved name: err = %v", err)
	}

	cfg = base
	dup := metrics.NewObjective("dup", metrics.Minimize, noop)
	cfg.Objectives = []metrics.Objective{dup, dup}
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate name: err = %v", err)
	}

	if err := base.Validate(); err != nil {
		t.Fatalf("valid tri-objective config rejected: %v", err)
	}
}
