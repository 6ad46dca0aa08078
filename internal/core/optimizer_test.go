package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// testPrior is a small skewed prior keeping optimizer tests fast.
func testPrior() []float64 { return []float64{0.35, 0.25, 0.2, 0.12, 0.08} }

// quickConfig returns a config sized for unit tests (sub-second runs).
func quickConfig() Config {
	cfg := DefaultConfig(testPrior(), 5000, 0.8)
	cfg.PopulationSize = 16
	cfg.ArchiveSize = 16
	cfg.OmegaSize = 200
	cfg.Generations = 60
	cfg.Seed = 42
	cfg.Workers = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	base := quickConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"short prior", func(c *Config) { c.Prior = []float64{1} }, ErrBadConfig},
		{"bad prior sum", func(c *Config) { c.Prior = []float64{0.5, 0.6} }, ErrBadConfig},
		{"negative prior", func(c *Config) { c.Prior = []float64{-0.2, 1.2} }, ErrBadConfig},
		{"records", func(c *Config) { c.Records = 0 }, ErrBadConfig},
		{"delta zero", func(c *Config) { c.Delta = 0 }, ErrBadConfig},
		{"delta big", func(c *Config) { c.Delta = 1.5 }, ErrBadConfig},
		{"delta NaN", func(c *Config) { c.Delta = math.NaN() }, ErrBadConfig},
		{"delta below mode", func(c *Config) { c.Delta = 0.2 }, ErrInfeasibleBound},
		{"negative size", func(c *Config) { c.Generations = -1 }, ErrBadConfig},
	}
	for _, c := range cases {
		cfg := quickConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Delta = 0.1
	if _, err := New(cfg); !errors.Is(err, ErrInfeasibleBound) {
		t.Fatalf("err = %v, want ErrInfeasibleBound", err)
	}
}

func TestRunProducesFeasibleFront(t *testing.T) {
	opt, err := New(quickConfig())
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
	if res.Generations != 60 {
		t.Fatalf("generations = %d, want 60", res.Generations)
	}
	prior := testPrior()
	for _, ind := range res.Front {
		if !ind.Genome.Valid() {
			t.Fatal("front genome not column-stochastic")
		}
		m, err := ind.Genome.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := metrics.MaxPosterior(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if mp > 0.8+1e-9 {
			t.Fatalf("front member violates bound: max posterior %v", mp)
		}
		// Cached evaluation must match a recomputation.
		ev, err := metrics.Evaluate(m, prior, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.Privacy-ind.Eval.Privacy) > 1e-12 || math.Abs(ev.Utility-ind.Eval.Utility) > 1e-12 {
			t.Fatalf("stale evaluation cached: %+v vs %+v", ind.Eval, ev)
		}
	}
}

func TestRunFrontIsMutuallyNonDominated(t *testing.T) {
	opt, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := res.FrontPoints()
	for i := range pts {
		for j := range pts {
			if i != j && pts[i].Dominates(pts[j]) {
				t.Fatalf("front point %v dominates %v", pts[i], pts[j])
			}
		}
	}
	// FrontPoints is sorted by privacy.
	for i := 1; i < len(pts); i++ {
		if pts[i].Privacy < pts[i-1].Privacy {
			t.Fatal("front points not sorted by privacy")
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// Workers share nothing but their private scratch (workerScratch), so
	// fronts AND every telemetry counter driven by the evaluation path must
	// be identical regardless of parallelism.
	run := func(workers int) ([]pareto.Point, int, map[string]string) {
		cfg := quickConfig()
		cfg.Workers = workers
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FrontPoints(), res.Evaluations, reg.Snapshot()
	}
	a, evalsA, snapA := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		b, evalsB, snapB := run(workers)
		if len(a) != len(b) {
			t.Fatalf("front sizes differ across worker counts 1 vs %d: %d vs %d", workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("front differs across worker counts at %d: %v vs %v", i, a[i], b[i])
			}
		}
		if evalsA != evalsB {
			t.Fatalf("evaluation counts differ across worker counts: %d vs %d", evalsA, evalsB)
		}
		for _, name := range []string{
			"optimizer.evaluations", "optimizer.repairs", "optimizer.redraws",
			"optimizer.rejects", "optimizer.repair_push_back",
		} {
			if snapA[name] != snapB[name] {
				t.Fatalf("telemetry %q differs across worker counts: %s vs %s", name, snapA[name], snapB[name])
			}
		}
	}
}

func TestRunSameSeedSameResult(t *testing.T) {
	run := func() []pareto.Point {
		opt, err := New(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FrontPoints()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) []pareto.Point {
		cfg := quickConfig()
		cfg.Seed = seed
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
	a, b := run(1), run(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fronts")
	}
}

func TestRunStagnationTermination(t *testing.T) {
	cfg := quickConfig()
	cfg.Generations = 100000
	cfg.StagnationLimit = 5
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stagnated {
		t.Fatal("run did not stop on stagnation")
	}
	if res.Generations >= 100000 {
		t.Fatal("stagnation limit ignored")
	}
}

func TestRunProgressCallback(t *testing.T) {
	cfg := quickConfig()
	cfg.Generations = 10
	var gens []int
	cfg.Progress = func(s Stats) {
		gens = append(gens, s.Generation)
		if s.ArchiveSize == 0 {
			t.Error("progress reported empty archive")
		}
		if s.Evaluations <= 0 {
			t.Error("progress reported no evaluations")
		}
	}
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 10 {
		t.Fatalf("progress called %d times, want 10", len(gens))
	}
	for i, g := range gens {
		if g != i {
			t.Fatalf("generations out of order: %v", gens)
		}
	}
}

func TestRunOmegaDisabledUsesArchive(t *testing.T) {
	cfg := quickConfig()
	cfg.OmegaSize = -1 // negative also disables
	cfg.OmegaSize = 0
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("ablation run produced empty front")
	}
	if len(res.Front) > cfg.ArchiveSize {
		t.Fatalf("front (%d) exceeds archive capacity (%d) with Omega disabled", len(res.Front), cfg.ArchiveSize)
	}
}

// TestOmegaWidensFront is the ablation claim of DESIGN.md: with the optimal
// set enabled, the output front is at least as large and covers at least the
// privacy range of the plain-SPEA2 run.
func TestOmegaWidensFront(t *testing.T) {
	run := func(omega int) []pareto.Point {
		cfg := quickConfig()
		cfg.OmegaSize = omega
		cfg.Generations = 120
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
	with := run(500)
	without := run(0)
	if len(with) < len(without) {
		t.Fatalf("Omega produced a smaller front: %d vs %d", len(with), len(without))
	}
}

func TestRunSymmetricOnly(t *testing.T) {
	cfg := quickConfig()
	cfg.SymmetricOnly = true
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range res.Front {
		g := ind.Genome
		for i := range g {
			for j := range g {
				if math.Abs(g[i][j]-g[j][i]) > 1e-6 {
					t.Fatalf("SymmetricOnly front contains asymmetric matrix (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestRunBoundReject(t *testing.T) {
	cfg := quickConfig()
	cfg.BoundMode = BoundReject
	cfg.Generations = 30
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	prior := testPrior()
	for _, ind := range res.Front {
		m, err := ind.Genome.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		ok, err := metrics.MeetsBound(m, prior, cfg.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("reject mode emitted a bound-violating matrix")
		}
	}
}

func TestRunNSGA2Engine(t *testing.T) {
	cfg := quickConfig()
	cfg.Engine = EngineNSGA2
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("NSGA-II run produced empty front")
	}
	prior := testPrior()
	for _, ind := range res.Front {
		m, err := ind.Genome.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := metrics.MaxPosterior(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if mp > cfg.Delta+1e-9 {
			t.Fatal("NSGA-II front member violates the bound")
		}
	}
	// Engine selection must change the trajectory (different fronts).
	spea, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	speaRes, err := spea.Run()
	if err != nil {
		t.Fatal(err)
	}
	same := len(res.Front) == len(speaRes.Front)
	if same {
		for i := range res.Front {
			if !evalsEqual(res.Front[i].Eval, speaRes.Front[i].Eval) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("NSGA-II produced a byte-identical front to SPEA2; engine switch inert?")
	}
}

func TestRunCustomPrivacyFn(t *testing.T) {
	cfg := quickConfig()
	gain := metrics.OrdinalGain(len(cfg.Prior))
	cfg.PrivacyFn = func(m *rr.Matrix, p []float64) (float64, error) {
		return metrics.PrivacyWithGain(m, p, gain)
	}
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("custom-privacy run produced empty front")
	}
	prior := testPrior()
	for _, ind := range res.Front {
		m, err := ind.Genome.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		// The cached privacy must be the custom metric, not Equation 8.
		want, err := metrics.PrivacyWithGain(m, prior, gain)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ind.Eval.Privacy-want) > 1e-12 {
			t.Fatalf("cached privacy %v is not the custom metric %v", ind.Eval.Privacy, want)
		}
		// The δ bound is enforced regardless of the objective override.
		mp, err := metrics.MaxPosterior(m, prior)
		if err != nil {
			t.Fatal(err)
		}
		if mp > cfg.Delta+1e-9 {
			t.Fatal("bound violated under custom privacy metric")
		}
	}
}

func TestRunNaiveMutation(t *testing.T) {
	cfg := quickConfig()
	cfg.MutationStyle = MutationNaive
	cfg.Generations = 30
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("naive-mutation run produced empty front")
	}
}

func TestResultMatrices(t *testing.T) {
	opt, err := New(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := res.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(res.Front) {
		t.Fatalf("matrices = %d, front = %d", len(ms), len(res.Front))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOptRRDominatesWarner is the headline claim (Section VI): the optimized
// front must weakly dominate a dense Warner sweep under the same bound, and
// never be dominated by it.
func TestOptRRDominatesWarner(t *testing.T) {
	prior := testPrior()
	const records = 5000
	const delta = 0.8
	ms, err := rr.WarnerSweep(len(prior), 200)
	if err != nil {
		t.Fatal(err)
	}
	var warner []pareto.Point
	for _, m := range ms {
		ok, err := metrics.MeetsBound(m, prior, delta)
		if err != nil || !ok {
			continue
		}
		ev, err := metrics.Evaluate(m, prior, records)
		if err != nil {
			continue
		}
		warner = append(warner, pareto.Point{Privacy: ev.Privacy, Utility: ev.Utility})
	}
	warnerFront := pareto.FrontPoints(warner)

	cfg := DefaultConfig(prior, records, delta)
	cfg.PopulationSize = 24
	cfg.ArchiveSize = 24
	cfg.Generations = 400
	cfg.OmegaSize = 500
	cfg.Seed = 7
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	front := res.FrontPoints()

	if cov := pareto.Coverage(warnerFront, front); cov > 0.02 {
		t.Fatalf("Warner covers %.2f of the OptRR front; OptRR should be undominated", cov)
	}
	if cov := pareto.Coverage(front, warnerFront); cov < 0.5 {
		t.Fatalf("OptRR covers only %.2f of the Warner front", cov)
	}
}

func BenchmarkGeneration(b *testing.B) {
	prior := testPrior()
	cfg := DefaultConfig(prior, 10000, 0.4)
	cfg.PopulationSize = 40
	cfg.ArchiveSize = 40
	cfg.Generations = b.N
	cfg.Seed = 1
	opt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := opt.Run(); err != nil {
		b.Fatal(err)
	}
}

// optimizerRealizeOracle realizes g in the order that repairs before it
// sweeps: meetBoundStats, then materialize and Evaluate; under BoundReject,
// materialize, check the package-level metrics.MeetsBound, then Evaluate.
// The extra objectives follow as in realizeGenome. realizeGenome must agree
// with it bit for bit.
func optimizerRealizeOracle(cfg Config, sc *workerScratch, g Genome) (Individual, genomeOutcome) {
	var c genomeOutcome
	var m *rr.Matrix
	var err error
	if cfg.BoundMode == BoundReject {
		if m, err = sc.matrixFor(g); err != nil {
			return Individual{}, c
		}
		if holds, err := metrics.MeetsBound(m, cfg.Prior, cfg.Delta); err != nil || !holds {
			c.rejected = true
			return Individual{}, c
		}
	} else {
		feasible, rst := meetBoundStats(g, cfg.Prior, cfg.Delta, cfg.SymmetricOnly, sc.slackFor(g.N()))
		c.repaired = rst.Rounds > 0 || rst.Blended
		c.pushBack = rst.PushBack
		if !feasible {
			return Individual{}, c
		}
		if m, err = sc.matrixFor(g); err != nil {
			return Individual{}, c
		}
	}
	ev, err := sc.ws.Evaluate(m, cfg.Prior, cfg.Records)
	if err != nil {
		return Individual{}, c
	}
	if ev.Extra, err = evalExtras(sc.ws, m, cfg.Prior, cfg.Records, cfg.Objectives); err != nil {
		return Individual{}, c
	}
	c.ok = true
	return Individual{Genome: g, Eval: ev}, c
}

// TestOptimizerRealizeMatchesOracle runs 600 genomes per mode through
// realizeGenome and optimizerRealizeOracle on separate scratches: the
// outcomes, the repaired genomes, the evaluations (extra objectives
// included) and the repair, reject and push-back tallies must agree bit for
// bit. δ sits 0.1 above the prior mode, where most random genomes miss it,
// and a third of the genomes are diagonals a little above uniform, most of
// which meet it, so every mode runs both branches.
func TestOptimizerRealizeMatchesOracle(t *testing.T) {
	prior := []float64{0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05}
	bits := math.Float64bits
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"repair", func(*Config) {}},
		{"reject", func(c *Config) { c.BoundMode = BoundReject }},
		{"symmetric", func(c *Config) { c.SymmetricOnly = true }},
		{"repair with extras", func(c *Config) {
			for _, name := range []string{"worst-mse", "mutual-information", "ldp-epsilon"} {
				o, ok := metrics.ObjectiveByName(name)
				if !ok {
					t.Fatalf("objective %q not registered", name)
				}
				c.Objectives = append(c.Objectives, o)
			}
		}},
	} {
		cfg := DefaultConfig(prior, 10000, 0.4)
		cfg.Workers = 1
		mode.mutate(&cfg)
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newWorkerScratch()
		r := randx.New(83)
		var got, want generationTally
		var met, missed int
		for trial := 0; trial < 600; trial++ {
			label := fmt.Sprintf("%s trial %d", mode.name, trial)
			g := o.randomGenome(r)
			switch trial % 3 {
			case 1:
				o.mutate(g, r)
			case 2:
				n := len(prior)
				g = diagonalGenome(n, 1/float64(n)+0.3*r.Float64())
			}
			o.project(g)
			gotG, wantG := g.Clone(), g.Clone()
			ind, oc := o.realizeGenome(gotG, 0)
			wantInd, wantOC := optimizerRealizeOracle(o.cfg, oracle, wantG)
			if oc.ok != wantOC.ok || oc.repaired != wantOC.repaired || oc.rejected != wantOC.rejected ||
				bits(oc.pushBack) != bits(wantOC.pushBack) {
				t.Fatalf("%s: outcome %+v, oracle %+v", label, oc, wantOC)
			}
			for c, col := range wantG {
				for j, v := range col {
					if bits(gotG[c][j]) != bits(v) {
						t.Fatalf("%s: genome[%d][%d] = %v, oracle %v", label, c, j, gotG[c][j], v)
					}
				}
			}
			if oc.ok {
				a, b := ind.Eval, wantInd.Eval
				same := bits(a.Privacy) == bits(b.Privacy) && bits(a.Utility) == bits(b.Utility) &&
					bits(a.MaxPosterior) == bits(b.MaxPosterior) && len(a.Extra) == len(b.Extra) &&
					len(a.Extra) == len(cfg.Objectives)
				for k := 0; same && k < len(a.Extra); k++ {
					same = bits(a.Extra[k]) == bits(b.Extra[k])
				}
				if !same {
					t.Fatalf("%s: eval %+v, oracle %+v", label, a, b)
				}
				if &ind.Genome[0][0] != &gotG[0][0] {
					t.Fatalf("%s: the individual does not carry the realized genome", label)
				}
			}
			got.add(oc)
			want.add(wantOC)
			if oc.repaired || oc.rejected {
				missed++
			} else if oc.ok {
				met++
			}
		}
		if got != want {
			t.Fatalf("%s: tally %+v, oracle %+v", mode.name, got, want)
		}
		t.Logf("%s: %d met the bound, %d missed it; tally %+v", mode.name, met, missed, got)
		if met == 0 || missed == 0 {
			t.Fatalf("%s: %d met the bound and %d missed it; both branches must run", mode.name, met, missed)
		}
	}
}
