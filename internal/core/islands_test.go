package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
)

// islandConfig is quickConfig scaled up enough for four islands to have
// meaningful sub-populations.
func islandConfig() Config {
	cfg := DefaultConfig(testPrior(), 5000, 0.8)
	cfg.PopulationSize = 48
	cfg.ArchiveSize = 48
	cfg.OmegaSize = 200
	cfg.Generations = 60
	cfg.Seed = 42
	cfg.Islands = 4
	cfg.MigrateEvery = 15
	return cfg
}

// frontKey flattens a result front for bit-for-bit comparison.
func frontKey(res Result) []float64 {
	var key []float64
	for _, ind := range res.Front {
		key = append(key, ind.Eval.Privacy, ind.Eval.Utility)
		for _, col := range ind.Genome {
			key = append(key, col...)
		}
	}
	return key
}

// TestIslandsSeededReproducible pins the island-mode determinism contract:
// a fixed (Seed, Islands, MigrateEvery) reproduces the front bit-for-bit,
// and changing the seed changes it.
func TestIslandsSeededReproducible(t *testing.T) {
	run := func(seed uint64) Result {
		cfg := islandConfig()
		cfg.Seed = seed
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	ka, kb := frontKey(a), frontKey(b)
	if len(ka) == 0 || len(ka) != len(kb) {
		t.Fatalf("front keys differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("same-seed island runs differ at %d: %v vs %v", i, ka[i], kb[i])
		}
	}
	c := run(43)
	kc := frontKey(c)
	if len(kc) == len(ka) {
		same := true
		for i := range ka {
			if ka[i] != kc[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical island fronts")
		}
	}
}

// TestIslandsIndependentOfWorkers: the island result depends on the island
// topology, never on how many evaluation workers each island happens to get.
func TestIslandsIndependentOfWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		cfg := islandConfig()
		cfg.Workers = workers
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return frontKey(res)
	}
	want := run(1)
	for _, w := range []int{4, 8, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: front key size %d, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: island front differs at %d", w, i)
			}
		}
	}
}

// TestIslandFrontFeasible sweeps seeds and island shapes: every front
// member must be a valid column-stochastic matrix meeting the δ bound, the
// front must be mutually non-dominated, and the cached evaluations fresh —
// migration and Ω folding must never leak an invalid or stale individual.
func TestIslandFrontFeasible(t *testing.T) {
	prior := testPrior()
	for _, tc := range []struct {
		seed     uint64
		islands  int
		interval int
	}{
		{1, 2, 10},
		{2, 3, 7},
		{3, 4, 25},
		{4, 5, 13},
	} {
		cfg := islandConfig()
		cfg.Seed = tc.seed
		cfg.Islands = tc.islands
		cfg.MigrateEvery = tc.interval
		cfg.Generations = 40
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("seed=%d islands=%d: empty front", tc.seed, tc.islands)
		}
		pts := res.FrontPoints()
		for i := range pts {
			for j := range pts {
				if i != j && pts[i].Dominates(pts[j]) {
					t.Fatalf("seed=%d islands=%d: front point %v dominates %v", tc.seed, tc.islands, pts[i], pts[j])
				}
			}
		}
		for _, ind := range res.Front {
			if !ind.Genome.Valid() {
				t.Fatalf("seed=%d islands=%d: front genome not column-stochastic", tc.seed, tc.islands)
			}
			m, err := ind.Genome.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			mp, err := metrics.MaxPosterior(m, prior)
			if err != nil {
				t.Fatal(err)
			}
			if mp > cfg.Delta+1e-9 {
				t.Fatalf("seed=%d islands=%d: front member violates bound: max posterior %v", tc.seed, tc.islands, mp)
			}
			ev, err := metrics.Evaluate(m, prior, cfg.Records)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ev.Privacy-ind.Eval.Privacy) > 1e-12 || math.Abs(ev.Utility-ind.Eval.Utility) > 1e-12 {
				t.Fatalf("stale evaluation cached: %+v vs %+v", ind.Eval, ev)
			}
		}
	}
}

// TestIslandHypervolumeNoWorseThanSerial is the front-quality gate from the
// convergence indicators: on the pinned config the island-mode front's
// hypervolume must reach the serial front's within tolerance — islands
// restructure the search, they must not degrade it.
func TestIslandHypervolumeNoWorseThanSerial(t *testing.T) {
	serialCfg := islandConfig()
	serialCfg.Islands = 0
	serialOpt, err := New(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialOpt.referenceUtility()
	serialRes, err := serialOpt.Run()
	if err != nil {
		t.Fatal(err)
	}
	serialHV := pareto.Hypervolume(serialRes.FrontPoints(), 0, ref)

	islandOpt, err := New(islandConfig())
	if err != nil {
		t.Fatal(err)
	}
	islandRes, err := islandOpt.Run()
	if err != nil {
		t.Fatal(err)
	}
	islandHV := pareto.Hypervolume(islandRes.FrontPoints(), 0, ref)

	const tolerance = 0.05 // relative
	if islandHV < serialHV*(1-tolerance) {
		t.Fatalf("island hypervolume %v below serial %v − %v%%", islandHV, serialHV, tolerance*100)
	}
}

// captureRecorder collects events for trace assertions.
type captureRecorder struct {
	mu     sync.Mutex
	events []string
	fields []obs.Fields
}

func (r *captureRecorder) Enabled() bool { return true }

func (r *captureRecorder) Record(event string, fields obs.Fields) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, event)
	r.fields = append(r.fields, fields)
}

// TestIslandTraceEvents checks the island observability seam: the top-level
// start event carries the island topology, migrations are recorded, and
// per-island events arrive under the "optimizer.island." prefix with an
// island tag.
func TestIslandTraceEvents(t *testing.T) {
	rec := &captureRecorder{}
	cfg := islandConfig()
	cfg.Generations = 30
	cfg.Recorder = rec
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Run(); err != nil {
		t.Fatal(err)
	}
	var starts, migrations, islandGens, dones int
	islandsSeen := map[int]bool{}
	for i, ev := range rec.events {
		switch ev {
		case "optimizer.start":
			starts++
			if got, _ := rec.fields[i]["islands"].(int); got != 4 {
				t.Fatalf("start event islands = %v, want 4", rec.fields[i]["islands"])
			}
			if got, _ := rec.fields[i]["migrate_every"].(int); got != 15 {
				t.Fatalf("start event migrate_every = %v, want 15", rec.fields[i]["migrate_every"])
			}
		case "optimizer.migration":
			migrations++
		case "optimizer.island.generation":
			islandGens++
			if idx, ok := rec.fields[i]["island"].(int); ok {
				islandsSeen[idx] = true
			}
		case "optimizer.done":
			dones++
		}
	}
	if starts != 1 {
		t.Fatalf("optimizer.start events = %d, want 1", starts)
	}
	if dones != 1 {
		t.Fatalf("optimizer.done events = %d, want 1", dones)
	}
	if migrations == 0 {
		t.Fatal("no optimizer.migration events")
	}
	if islandGens != 4*30 {
		t.Fatalf("island generation events = %d, want %d", islandGens, 4*30)
	}
	if len(islandsSeen) != 4 {
		t.Fatalf("island tags seen = %v, want all of 0..3", islandsSeen)
	}
}

// TestClosedFormSeeds pins the Holohan anchor family: the grid is dealt
// round-robin across islands with nothing dropped (when capacity allows),
// and every seed genome is the valid constant-diagonal k-RR matrix of its ε.
func TestClosedFormSeeds(t *testing.T) {
	const n, islands = 5, 3
	total := 0
	for i := 0; i < islands; i++ {
		seeds := closedFormSeeds(n, i, islands, 10)
		total += len(seeds)
		for _, g := range seeds {
			if !g.Valid() {
				t.Fatal("closed-form seed not column-stochastic")
			}
			diag := g[0][0]
			for c := range g {
				for r := range g[c] {
					want := (1 - diag) / float64(n-1)
					if r == c {
						want = diag
					}
					if math.Abs(g[c][r]-want) > 1e-15 {
						t.Fatalf("seed entry [%d][%d] = %v, want %v", c, r, g[c][r], want)
					}
				}
			}
			if diag <= 1.0/float64(n) || diag >= 1 {
				t.Fatalf("seed diagonal %v outside (1/n, 1)", diag)
			}
		}
	}
	if total != len(closedFormEpsilons) {
		t.Fatalf("dealt %d seeds across islands, want %d", total, len(closedFormEpsilons))
	}
	if got := closedFormSeeds(n, 0, 1, 2); len(got) != 2 {
		t.Fatalf("capacity cap ignored: got %d seeds, want 2", len(got))
	}
}

// TestValidateIslandConfig: negative island parameters are rejected;
// Islands 0/1 run the plain path.
func TestValidateIslandConfig(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Islands = -1 },
		func(c *Config) { c.MigrateEvery = -5 },
	} {
		cfg := quickConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatal("negative island parameter accepted")
		}
	}
}

// TestIslandsOmegaDisabled: the ablation switch composes with islands — the
// output front comes from the concatenated archives.
func TestIslandsOmegaDisabled(t *testing.T) {
	cfg := islandConfig()
	cfg.OmegaSize = 0
	cfg.Generations = 20
	opt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front with Ω disabled")
	}
	pts := res.FrontPoints()
	for i := range pts {
		for j := range pts {
			if i != j && pts[i].Dominates(pts[j]) {
				t.Fatalf("front point %v dominates %v", pts[i], pts[j])
			}
		}
	}
}
