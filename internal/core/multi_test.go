package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"optrr/internal/metrics"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// testJoint returns a mildly correlated joint over [3, 2] (6 cells).
func testJoint() ([]float64, []int) {
	joint := []float64{0.25, 0.05, 0.10, 0.15, 0.05, 0.40}
	return joint, []int{3, 2}
}

func quickMulti() MultiConfig {
	joint, sizes := testJoint()
	return MultiConfig{
		Joint:          joint,
		Sizes:          sizes,
		Records:        5000,
		Delta:          0.85,
		PopulationSize: 12,
		ArchiveSize:    12,
		OmegaSize:      100,
		Generations:    40,
		Seed:           5,
	}
}

func TestMultiConfigValidate(t *testing.T) {
	base := quickMulti()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*MultiConfig)
		want   error
	}{
		{"no attributes", func(c *MultiConfig) { c.Sizes = nil }, ErrBadConfig},
		{"tiny attribute", func(c *MultiConfig) { c.Sizes = []int{1, 6} }, ErrBadConfig},
		{"joint size", func(c *MultiConfig) { c.Joint = c.Joint[:3] }, ErrBadConfig},
		{"joint sum", func(c *MultiConfig) { c.Joint = []float64{0.5, 0.2, 0.1, 0.1, 0.05, 0.5} }, ErrBadConfig},
		{"records", func(c *MultiConfig) { c.Records = 0 }, ErrBadConfig},
		{"delta", func(c *MultiConfig) { c.Delta = 0 }, ErrBadConfig},
		{"delta NaN", func(c *MultiConfig) { c.Delta = math.NaN() }, ErrBadConfig},
		{"delta below joint mode", func(c *MultiConfig) { c.Delta = 0.2 }, ErrInfeasibleBound},
		{"negative population", func(c *MultiConfig) { c.PopulationSize = -1 }, ErrBadConfig},
		{"negative archive", func(c *MultiConfig) { c.ArchiveSize = -1 }, ErrBadConfig},
	}
	for _, c := range cases {
		cfg := quickMulti()
		c.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestOptimizeMultiProducesFeasibleFront(t *testing.T) {
	cfg := quickMulti()
	res, err := OptimizeMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty multi front")
	}
	if res.Generations != cfg.Generations {
		t.Fatalf("generations = %d", res.Generations)
	}
	for _, ind := range res.Front {
		if len(ind.Genomes) != 2 {
			t.Fatalf("genome tuple of %d attributes", len(ind.Genomes))
		}
		for d, g := range ind.Genomes {
			if !g.Valid() {
				t.Fatalf("attribute %d genome invalid", d)
			}
			if g.N() != cfg.Sizes[d] {
				t.Fatalf("attribute %d has %d categories, want %d", d, g.N(), cfg.Sizes[d])
			}
		}
		ms, err := ind.Matrices()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := metrics.JointMaxPosterior(ms, cfg.Joint)
		if err != nil {
			t.Fatal(err)
		}
		if mp > cfg.Delta+1e-9 {
			t.Fatalf("front member violates the record-level bound: %v", mp)
		}
		// Cached evaluation must be reproducible.
		ev, err := metrics.JointEvaluate(ms, cfg.Joint, cfg.Records)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ev.Privacy-ind.Eval.Privacy) > 1e-12 {
			t.Fatal("stale cached evaluation")
		}
	}
}

func TestOptimizeMultiFrontNonDominated(t *testing.T) {
	res, err := OptimizeMulti(quickMulti())
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
}

func TestOptimizeMultiDeterministic(t *testing.T) {
	a, err := OptimizeMulti(quickMulti())
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeMulti(quickMulti())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.FrontPoints(), b.FrontPoints()
	if len(pa) != len(pb) {
		t.Fatalf("front sizes differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("fronts differ at %d", i)
		}
	}
}

// TestOptimizeMultiBeatsIndependentWarner: the jointly optimized tuples
// should weakly dominate disguising each attribute with a Warner matrix of
// the same parameter, compared at matched record-level privacy under the
// same bound.
func TestOptimizeMultiBeatsIndependentWarner(t *testing.T) {
	cfg := quickMulti()
	cfg.Generations = 150
	res, err := OptimizeMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.FrontPoints()
	if len(pts) < 3 {
		t.Fatalf("front too small: %d", len(pts))
	}
	// Front sanity: non-trivial privacy span, monotone utility.
	min, max := pts[0].Privacy, pts[len(pts)-1].Privacy
	if max-min < 0.05 {
		t.Fatalf("front privacy span %v too narrow", max-min)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Utility < pts[i-1].Utility-1e-15 {
			t.Fatal("front utility not monotone in privacy")
		}
	}
	// Warner-per-attribute baseline under the same joint metrics and bound.
	beats := 0
	compared := 0
	for k := 5; k <= 95; k += 5 {
		p := float64(k) / 100
		m1, err := diagonalGenome(cfg.Sizes[0], p).Matrix()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := diagonalGenome(cfg.Sizes[1], p).Matrix()
		if err != nil {
			t.Fatal(err)
		}
		ms := []*rr.Matrix{m1, m2}
		mp, err := metrics.JointMaxPosterior(ms, cfg.Joint)
		if err != nil || mp > cfg.Delta {
			continue
		}
		ev, err := metrics.JointEvaluate(ms, cfg.Joint, cfg.Records)
		if err != nil {
			continue
		}
		compared++
		// Best optimized utility at this privacy level.
		best := math.Inf(1)
		for _, fp := range pts {
			if fp.Privacy >= ev.Privacy && fp.Utility < best {
				best = fp.Utility
			}
		}
		if best <= ev.Utility*1.05 {
			beats++
		}
	}
	if compared == 0 {
		t.Fatal("no feasible Warner baseline point to compare against")
	}
	if ratio := float64(beats) / float64(compared); ratio < 0.7 {
		t.Fatalf("optimized tuples match/beat only %.0f%% of Warner baseline points", ratio*100)
	}
}

func TestMeetJointBoundBlends(t *testing.T) {
	joint, sizes := testJoint()
	cfg := MultiConfig{Joint: joint, Sizes: sizes, Records: 1000, Delta: 0.6}
	// Near-deterministic genomes violate any delta < 1.
	gs := []Genome{
		{{0.98, 0.01, 0.01}, {0.01, 0.98, 0.01}, {0.01, 0.01, 0.98}},
		{{0.98, 0.02}, {0.02, 0.98}},
	}
	mats, err := MultiIndividual{Genomes: gs}.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	before, err := metrics.JointMaxPosterior(mats, joint)
	if err != nil {
		t.Fatal(err)
	}
	if before <= cfg.Delta {
		t.Fatalf("test premise broken: posterior %v already under bound", before)
	}
	sc := newMultiScratch(sizes)
	if !materializeTuple(sc.mats, gs) {
		t.Fatal("materialize failed")
	}
	if !meetJointBound(gs, sc, cfg) {
		t.Fatal("joint repair failed")
	}
	after, err := MultiIndividual{Genomes: gs}.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	mp, err := metrics.JointMaxPosterior(after, joint)
	if err != nil {
		t.Fatal(err)
	}
	if mp > cfg.Delta+1e-9 {
		t.Fatalf("joint repair left posterior %v above %v", mp, cfg.Delta)
	}
}

// realizeOracle is realizeGenome as it was before EvaluateWithin: it
// materializes the tuple, checks the record-level bound and repairs a miss,
// materializes the tuple again and evaluates it. realizeGenome must match it
// in outcome, repaired genomes and evaluation, bit for bit.
func realizeOracle(t tuple, sc *multiScratch, cfg MultiConfig) (metrics.Evaluation, bool) {
	if !materializeTuple(sc.mats, t) {
		return metrics.Evaluation{}, false
	}
	if mp, err := sc.jws.MaxPosterior(sc.mats, cfg.Joint); err != nil || mp > cfg.Delta+1e-12 {
		if !meetJointBound(t, sc, cfg) {
			return metrics.Evaluation{}, false
		}
	}
	if !materializeTuple(sc.mats, t) {
		return metrics.Evaluation{}, false
	}
	ev, err := sc.jws.Evaluate(sc.mats, cfg.Joint, cfg.Records)
	if err != nil {
		return metrics.Evaluation{}, false
	}
	return ev, true
}

// checkRealizeMatchesOracle realizes clones of t through realizeGenome and
// realizeOracle on separate scratches and fails unless the outcomes, the
// repaired genomes and the evaluations agree bit for bit. It returns the
// outcome and whether realizing changed the genomes (a repair ran).
func checkRealizeMatchesOracle(t *testing.T, label string, p *multiProblem, oracle *multiScratch, gs tuple) (ok, repaired bool) {
	t.Helper()
	got, want := gs.Clone(), gs.Clone()
	ind, outcome := p.realizeGenome(got, 0)
	ev, wantOK := realizeOracle(want, oracle, p.cfg)
	if outcome.ok != wantOK {
		t.Fatalf("%s: realizeGenome ok = %v, oracle %v", label, outcome.ok, wantOK)
	}
	for d := range want {
		for i, col := range want[d] {
			for j, v := range col {
				if math.Float64bits(got[d][i][j]) != math.Float64bits(v) {
					t.Fatalf("%s: genome[%d][%d][%d] = %v, oracle %v", label, d, i, j, got[d][i][j], v)
				}
				if v != gs[d][i][j] {
					repaired = true
				}
			}
		}
	}
	if wantOK {
		if math.Float64bits(ind.Eval.Privacy) != math.Float64bits(ev.Privacy) ||
			math.Float64bits(ind.Eval.Utility) != math.Float64bits(ev.Utility) ||
			math.Float64bits(ind.Eval.MaxPosterior) != math.Float64bits(ev.MaxPosterior) ||
			len(ind.Eval.Extra) != 0 || len(ev.Extra) != 0 {
			t.Fatalf("%s: realizeGenome eval %+v, oracle %+v", label, ind.Eval, ev)
		}
	}
	return wantOK, repaired
}

// multiRealizeProblem returns a one-worker problem over search-multi's
// 4·5·6 shape with a random joint whose mode is far below 0.4, together
// with a separate scratch for the oracle.
func multiRealizeProblem(delta float64) (*multiProblem, *multiScratch) {
	sizes := []int{4, 5, 6}
	r := randx.New(71)
	joint := make([]float64, 120)
	var sum float64
	for i := range joint {
		joint[i] = r.Float64() + 0.1
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	cfg := MultiConfig{Joint: joint, Sizes: sizes, Records: 10000, Delta: delta}
	return &multiProblem{cfg: cfg, scratch: []*multiScratch{newMultiScratch(sizes)}}, newMultiScratch(sizes)
}

// TestRealizeGenomeMatchesOracle runs 500 random tuples per bound through
// both realize paths. A third of the tuples are flat-Dirichlet, a third mix
// those with constant diagonals over their whole range, and a third are
// sharp diagonals, so every bound sees tuples that meet it outright and
// tuples that need repair.
func TestRealizeGenomeMatchesOracle(t *testing.T) {
	for _, delta := range []float64{0.4, 0.6, 0.9} {
		p, oracle := multiRealizeProblem(delta)
		r := randx.New(73)
		var met, repaired, rejected int
		for trial := 0; trial < 500; trial++ {
			gs := p.randomGenome(r)
			for d, n := range p.cfg.Sizes {
				switch {
				case trial%3 == 1 && r.Intn(2) == 0:
					gs[d] = diagonalGenome(n, 1/float64(n)+(1-1/float64(n))*r.Float64())
				case trial%3 == 2:
					gs[d] = diagonalGenome(n, 0.85+0.15*r.Float64())
				}
			}
			ok, changed := checkRealizeMatchesOracle(t, fmt.Sprintf("delta %v trial %d", delta, trial), p, oracle, gs)
			switch {
			case !ok:
				rejected++
			case changed:
				repaired++
			default:
				met++
			}
		}
		t.Logf("delta %v: %d met the bound, %d repaired, %d rejected", delta, met, repaired, rejected)
		if met == 0 || repaired == 0 {
			t.Fatalf("delta %v: %d met the bound and %d were repaired; both branches must run", delta, met, repaired)
		}
	}
}

// TestRealizeGenomeSingularTuples covers the two singular branches: a
// singular tuple that meets the bound is rejected untouched, and one that
// misses it is repaired (blending toward uniform keeps it singular) and then
// rejected by its evaluation.
func TestRealizeGenomeSingularTuples(t *testing.T) {
	p, oracle := multiRealizeProblem(0.6)
	uniform := func(n int) Genome { return diagonalGenome(n, 1/float64(n)) }
	// Every attribute totally random: the posteriors equal the joint prior.
	meets := tuple{uniform(4), uniform(5), uniform(6)}
	if ok, changed := checkRealizeMatchesOracle(t, "singular, meets", p, oracle, meets); ok || changed {
		t.Fatalf("singular tuple that meets the bound: ok %v, repaired %v; want rejected untouched", ok, changed)
	}
	// Attribute 0 reports categories 0 and 1 alike; the others are nearly
	// deterministic, so some record posteriors are close to 1.
	merged := diagonalGenome(4, 0.97)
	merged[1] = append([]float64(nil), merged[0]...)
	misses := tuple{merged, diagonalGenome(5, 0.97), diagonalGenome(6, 0.97)}
	if ok, changed := checkRealizeMatchesOracle(t, "singular, misses", p, oracle, misses); ok || !changed {
		t.Fatalf("singular tuple that misses the bound: ok %v, repaired %v; want repaired, then rejected", ok, changed)
	}
}

// TestOptimizeMultiDeterministicAcrossWorkers pins the parallel evaluation
// contract: the factored per-worker scratch must make the search bit-for-bit
// identical at every worker count — fronts, evaluations, and every genome
// entry.
func TestOptimizeMultiDeterministicAcrossWorkers(t *testing.T) {
	var ref MultiResult
	for i, w := range []int{1, 2, 4, 7} {
		cfg := quickMulti()
		cfg.Workers = w
		res, err := OptimizeMulti(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Evaluations != ref.Evaluations {
			t.Fatalf("workers=%d: evaluations %d, want %d", w, res.Evaluations, ref.Evaluations)
		}
		if len(res.Front) != len(ref.Front) {
			t.Fatalf("workers=%d: front size %d, want %d", w, len(res.Front), len(ref.Front))
		}
		for k, ind := range res.Front {
			want := ref.Front[k]
			if ind.Eval.Privacy != want.Eval.Privacy || ind.Eval.Utility != want.Eval.Utility ||
				ind.Eval.MaxPosterior != want.Eval.MaxPosterior {
				t.Fatalf("workers=%d: front[%d] eval %+v, want %+v", w, k, ind.Eval, want.Eval)
			}
			for d, g := range ind.Genomes {
				for ci, col := range g {
					for j, v := range col {
						if v != want.Genomes[d][ci][j] {
							t.Fatalf("workers=%d: front[%d] genome[%d][%d][%d] = %v, want %v",
								w, k, d, ci, j, v, want.Genomes[d][ci][j])
						}
					}
				}
			}
		}
	}
}

// TestOptimizeMultiBeyondDenseCap is the acceptance-scale run: a d=4 problem
// whose product space (12⁴ = 20736 cells) exceeds the old dense
// maxJointCells cap of 2^14 runs end to end through the factored path, and
// every front member still satisfies the record-level bound.
func TestOptimizeMultiBeyondDenseCap(t *testing.T) {
	sizes := []int{12, 12, 12, 12}
	cells := 1
	for _, n := range sizes {
		cells *= n
	}
	if cells <= 1<<14 {
		t.Fatalf("test sizes %v do not exceed the old cap", sizes)
	}
	joint := make([]float64, cells)
	sum := 0.0
	for i := range joint {
		// Deterministic skewed joint without an RNG dependency.
		joint[i] = 1 + float64(i%17)
		sum += joint[i]
	}
	for i := range joint {
		joint[i] /= sum
	}
	cfg := MultiConfig{
		Joint:          joint,
		Sizes:          sizes,
		Records:        100000,
		Delta:          0.5,
		PopulationSize: 6,
		ArchiveSize:    6,
		OmegaSize:      50,
		Generations:    3,
		Seed:           11,
	}
	res, err := OptimizeMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front on beyond-cap problem")
	}
	ws := metrics.NewJointWorkspace()
	for _, ind := range res.Front {
		ms, err := ind.Matrices()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := ws.MaxPosterior(ms, joint)
		if err != nil {
			t.Fatal(err)
		}
		if mp > cfg.Delta+1e-9 {
			t.Fatalf("beyond-cap front member violates the bound: %v", mp)
		}
	}
}

func BenchmarkOptimizeMultiGeneration(b *testing.B) {
	cfg := quickMulti()
	cfg.Generations = b.N
	if _, err := OptimizeMulti(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOptimizeMulti runs the full quickMulti search per iteration — the
// pinned end-to-end cost of the factored multi-attribute optimizer, diffed
// by cmd/benchdiff on every ci.sh run.
func BenchmarkOptimizeMulti(b *testing.B) {
	cfg := quickMulti()
	var front int
	for i := 0; i < b.N; i++ {
		res, err := OptimizeMulti(cfg)
		if err != nil {
			b.Fatal(err)
		}
		front = len(res.Front)
	}
	b.ReportMetric(float64(front), "front-size")
}
