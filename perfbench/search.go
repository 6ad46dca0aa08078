package main

import (
	"fmt"
	"time"

	"optrr"
	"optrr/internal/core"
	"optrr/internal/emoo"
	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// The paper's Section VI search: normal prior over n=10 categories,
// N=10000 records, δ=0.8, population and archive 40, Ω 1000, 500
// generations.
const (
	paperCategories  = 10
	paperRecords     = 10000
	paperDelta       = 0.8
	paperGenerations = 500
	paperPopulation  = 40
)

// search-multi: a d=3 tuple with 4·5·6 = 120 product cells and a small
// population, run on one worker so its count × unit-cost ledger is a sum of
// single-core time.
var multiSizes = []int{4, 5, 6}

const (
	multiRecords     = 10000
	multiDelta       = 0.6
	multiPopulation  = 12
	multiOmega       = 100
	multiGenerations = 60
)

// warnerFloor is the share of the Warner family's hypervolume a
// search-paper front must reach. Over about 2700 searches on 80 seeds the
// ratio had median 1.045 and ran down to 0.957: a 500-generation search
// does not always beat the family outright, and now and then stalls a few
// percent short of it.
const warnerFloor = 0.9

// searchSetupReps is how many times a search run times its set-up; setup_s
// is the median.
const searchSetupReps = 15

// searchSeed derives the seed of the i-th search of a run.
func searchSeed(seed uint64, i int) uint64 {
	return randx.StreamSeed(randx.StreamSeed(seed, streamSearch), uint64(i))
}

// timeSetup returns the median seconds per set-up call over
// searchSetupReps timings. A search set-up takes microseconds, so each
// timing repeats the call for at least a millisecond and divides.
func timeSetup(setup func() error) (float64, error) {
	t0 := time.Now()
	if err := setup(); err != nil {
		return 0, err
	}
	inner := int(time.Millisecond/max(time.Since(t0), time.Microsecond)) + 1
	times := make([]float64, searchSetupReps)
	for i := range times {
		t0 := time.Now()
		for k := 0; k < inner; k++ {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		times[i] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(times), nil
}

// frontHypervolume is the hypervolume the optimizer itself tracks: reference
// point (0, 2·utility of the Warner p=0.3 scheme).
func frontHypervolume(pts []pareto.Point, refUtility float64) float64 {
	return pareto.Hypervolume(pts, 0, refUtility)
}

// checkFront applies the search checks every front must pass: it is
// non-empty and mutually non-dominated, and every member meets δ by
// meets(i).
func checkFront(out *outcome, label string, pts []pareto.Point, meets func(i int) (bool, error)) {
	out.checkf(len(pts) > 0, "%s: empty front", label)
	out.checkf(len(pareto.Front(pts)) == len(pts), "%s: %d of %d front members are dominated",
		label, len(pts)-len(pareto.Front(pts)), len(pts))
	for i := range pts {
		ok, err := meets(i)
		if err != nil || !ok {
			out.checkf(false, "%s: front member %d violates the posterior bound (err %v)", label, i, err)
			return
		}
	}
}

// paperTrace accumulates the optimizer.generation fields of traced searches.
type paperTrace struct {
	sums     map[string]float64
	searches int
}

var phaseFields = []string{"select_ms", "vary_ms", "eval_ms", "omega_ms"}

// add folds one search's events into the ledger and checks that every
// generation's evaluations equal the population plus its redraws and that
// the last cumulative count equals the result's.
func (t *paperTrace) add(out *outcome, label string, rec *optrr.MemoryRecorder, evaluations int, wall time.Duration) {
	gens := rec.Named("optimizer.generation")
	out.checkf(len(gens) == paperGenerations, "%s: %d generation events, want %d", label, len(gens), paperGenerations)
	phases := 0.0
	for _, e := range gens {
		f := e.Fields
		for _, k := range append(phaseFields, "fitness_ms", "truncate_ms") {
			v, _ := f[k].(float64)
			t.sums[k] += v
		}
		for _, k := range phaseFields {
			v, _ := f[k].(float64)
			phases += v
		}
		evalsGen, _ := f["evals_gen"].(int)
		redraws, _ := f["redraws"].(int)
		repairs, _ := f["repairs"].(int)
		t.sums["evals_gen"] += float64(evalsGen)
		t.sums["redraws"] += float64(redraws)
		t.sums["repairs"] += float64(repairs)
		if evalsGen != paperPopulation+redraws {
			out.checkf(false, "%s: generation %v evaluated %d, want population %d + %d redraws",
				label, f["gen"], evalsGen, paperPopulation, redraws)
		}
	}
	if len(gens) > 0 {
		last, _ := gens[len(gens)-1].Fields["evals"].(int)
		out.checkf(last == evaluations, "%s: trace counts %d evaluations, result %d", label, last, evaluations)
	}
	t.sums["unexplained_ms"] += float64(wall)/float64(time.Millisecond) - phases
	t.searches++
}

func (t *paperTrace) per(k string) float64 { return t.sums[k] / float64(t.searches) }

func runSearchPaper(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	prior := normalPrior(paperCategories, paperRecords, cfg.seed)
	setup, err := timeSetup(func() error {
		c := core.DefaultConfig(prior, paperRecords, paperDelta)
		c.Generations = paperGenerations
		_, err := core.New(c)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("search-paper set-up: %w", err)
	}
	refU, err := warnerUtility([]int{paperCategories}, func(ms []*rr.Matrix) (float64, error) {
		return metrics.Utility(ms[0], prior, paperRecords)
	})
	if err != nil {
		return nil, err
	}
	warnerHV, err := warnerHypervolume([]int{paperCategories}, paperDelta, refU, func(ms []*rr.Matrix) (metrics.Evaluation, error) {
		return metrics.Evaluate(ms[0], prior, paperRecords)
	})
	if err != nil {
		return nil, err
	}

	search := func(i int, rec *optrr.MemoryRecorder) (*optrr.Result, time.Duration, error) {
		p := optrr.Problem{
			Prior:       prior,
			Records:     paperRecords,
			Delta:       paperDelta,
			Seed:        searchSeed(cfg.seed, i),
			Generations: paperGenerations,
		}
		if rec != nil {
			p.Recorder = rec
		}
		t0 := time.Now()
		res, err := optrr.Optimize(p)
		return res, time.Since(t0), err
	}

	var walls, hvs []float64
	evaluations := 0
	tr := paperTrace{sums: map[string]float64{}}
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var rec *optrr.MemoryRecorder
		if cfg.trace {
			rec = optrr.NewMemoryRecorder()
		}
		res, wall, err := search(i, rec)
		out.attempted++
		label := fmt.Sprintf("search %d", i)
		if err != nil {
			out.failed++
			out.checkf(false, "%s: %v", label, err)
			continue
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		evaluations += res.Evaluations
		out.checkf(res.Generations == paperGenerations, "%s: ran %d generations, want %d", label, res.Generations, paperGenerations)
		minEvals := paperPopulation * (paperGenerations + 1)
		out.checkf(res.Evaluations >= minEvals && res.Evaluations <= 2*minEvals,
			"%s: %d evaluations outside the budget [%d, %d]", label, res.Evaluations, minEvals, 2*minEvals)
		ms := res.Matrices()
		checkFront(out, label, res.Front, func(k int) (bool, error) {
			return metrics.MeetsBound(ms[k], prior, paperDelta)
		})
		hv := frontHypervolume(res.Front, refU)
		out.checkf(hv >= warnerFloor*warnerHV, "%s: front hypervolume %.6g below %g of the Warner family's %.6g",
			label, hv, warnerFloor, warnerHV)
		hvs = append(hvs, hv)
		if rec != nil {
			tr.add(out, label, rec, res.Evaluations, wall)
		}
	}
	if len(hvs) > 0 {
		res, _, err := search(0, nil)
		if err != nil {
			return nil, fmt.Errorf("repeating search 0: %w", err)
		}
		hv := frontHypervolume(res.Front, refU)
		out.checkf(hv == hvs[0], "search 0 repeated: hypervolume %v, first run %v", hv, hvs[0])
	}
	if len(walls) == 0 {
		return out, nil
	}
	if !cfg.trace {
		searchMetrics(out.metrics, walls, evaluations, median(hvs)/warnerHV)
		out.metrics["setup_s"] = setup
		return out, nil
	}
	m := out.metrics
	m["core.select_ms"] = tr.per("select_ms")
	m["core.vary_ms"] = tr.per("vary_ms")
	m["core.eval_ms"] = tr.per("eval_ms")
	m["core.omega_ms"] = tr.per("omega_ms")
	m["emoo.fitness_ms"] = tr.per("fitness_ms")
	m["emoo.truncate_ms"] = tr.per("truncate_ms")
	m["core.evaluations"] = float64(evaluations) / float64(len(walls))
	m["core.repairs"] = tr.per("repairs")
	m["core.redraws"] = tr.per("redraws")
	m["core.redraw_ratio"] = tr.sums["redraws"] / tr.sums["evals_gen"]
	m["core.front_hypervolume"] = mean(hvs)
	m["core.unexplained_ms"] = tr.per("unexplained_ms")
	tracedMetrics(m, walls, evaluations)
	return out, nil
}

// searchMetrics fills the end-to-end metrics a search workload shares:
// median and 90th-percentile search wall time (ms), evaluations per second
// and the front quality. The median, unlike a mean, holds still when the
// machine is busy elsewhere for part of a run.
func searchMetrics(m map[string]float64, walls []float64, evaluations int, quality float64) {
	m["op_ms"] = median(walls)
	m["op_tail_ms"] = percentile(sortedCopy(walls), 0.9)
	m["throughput_per_s"] = float64(evaluations) / (mean(walls) * float64(len(walls)) / 1e3)
	m["quality"] = quality
}

// tracedMetrics are a traced search run's own end-to-end figures, which set
// against the untraced run's give the tracing overhead.
func tracedMetrics(m map[string]float64, walls []float64, evaluations int) {
	m["traced.op_ms"] = median(walls)
	m["traced.op_tail_ms"] = percentile(sortedCopy(walls), 0.9)
	m["traced.throughput_per_s"] = float64(evaluations) / (mean(walls) * float64(len(walls)) / 1e3)
}

// warnerUtility is the hypervolume reference utility the optimizer uses:
// twice the utility of the Warner p=0.3 scheme on every attribute.
func warnerUtility(sizes []int, utility func([]*rr.Matrix) (float64, error)) (float64, error) {
	ms := make([]*rr.Matrix, len(sizes))
	for d, n := range sizes {
		m, err := rr.Warner(n, 0.3)
		if err != nil {
			return 0, err
		}
		ms[d] = m
	}
	u, err := utility(ms)
	return 2 * u, err
}

// warnerHypervolume is the hypervolume of the δ-feasible Warner family
// (Theorem 2: Warner, UP and FRAPP are one family), with one retention
// probability shared by every attribute: the baseline an optimized front
// must dominate. A front's quality metric is its hypervolume over this one.
func warnerHypervolume(sizes []int, delta, refU float64, evaluate func([]*rr.Matrix) (metrics.Evaluation, error)) (float64, error) {
	const steps = 400
	var pts []pareto.Point
	ms := make([]*rr.Matrix, len(sizes))
	for k := 0; k <= steps; k++ {
		var err error
		for d, n := range sizes {
			if ms[d], err = rr.Warner(n, float64(k)/steps); err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		ev, err := evaluate(ms)
		if err != nil || ev.MaxPosterior > delta {
			continue
		}
		pts = append(pts, pareto.Point{Privacy: ev.Privacy, Utility: ev.Utility})
	}
	if len(pts) == 0 {
		return 0, fmt.Errorf("no feasible Warner scheme at delta %v", delta)
	}
	return frontHypervolume(pts, refU), nil
}

func runSearchMulti(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	joint := correlatedJoint(multiSizes, 20000, cfg.seed)
	config := func(i int) core.MultiConfig {
		return core.MultiConfig{
			Joint:          joint,
			Sizes:          multiSizes,
			Records:        multiRecords,
			Delta:          multiDelta,
			PopulationSize: multiPopulation,
			ArchiveSize:    multiPopulation,
			OmegaSize:      multiOmega,
			Generations:    multiGenerations,
			Seed:           searchSeed(cfg.seed, i),
			Workers:        1,
		}
	}
	setup, err := timeSetup(func() error { return config(0).Validate() })
	if err != nil {
		return nil, fmt.Errorf("search-multi set-up: %w", err)
	}
	ws := metrics.NewJointWorkspace()
	refU, err := warnerUtility(multiSizes, func(ms []*rr.Matrix) (float64, error) {
		return ws.Utility(ms, joint, multiRecords)
	})
	if err != nil {
		return nil, err
	}
	warnerHV, err := warnerHypervolume(multiSizes, multiDelta, refU, func(ms []*rr.Matrix) (metrics.Evaluation, error) {
		return ws.Evaluate(ms, joint, multiRecords)
	})
	if err != nil {
		return nil, err
	}

	search := func(i int) (core.MultiResult, time.Duration, error) {
		t0 := time.Now()
		res, err := core.OptimizeMulti(config(i))
		return res, time.Since(t0), err
	}
	var walls, hvs []float64
	var last core.MultiResult
	evaluations := 0
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		res, wall, err := search(i)
		out.attempted++
		label := fmt.Sprintf("search %d", i)
		if err != nil {
			out.failed++
			out.checkf(false, "%s: %v", label, err)
			continue
		}
		walls = append(walls, float64(wall)/float64(time.Millisecond))
		evaluations += res.Evaluations
		out.checkf(res.Generations == multiGenerations, "%s: ran %d generations, want %d", label, res.Generations, multiGenerations)
		minEvals := multiPopulation * (multiGenerations + 1)
		out.checkf(res.Evaluations >= minEvals && res.Evaluations <= 2*minEvals,
			"%s: %d evaluations outside the budget [%d, %d]", label, res.Evaluations, minEvals, 2*minEvals)
		pts := res.FrontPoints()
		checkFront(out, label, pts, func(k int) (bool, error) {
			ms, err := res.Front[k].Matrices()
			if err != nil {
				return false, err
			}
			return ws.MeetsBound(ms, joint, multiDelta)
		})
		hvs = append(hvs, frontHypervolume(pts, refU))
		last = res
	}
	if len(hvs) > 0 {
		res, _, err := search(0)
		if err != nil {
			return nil, fmt.Errorf("repeating search 0: %w", err)
		}
		hv := frontHypervolume(res.FrontPoints(), refU)
		out.checkf(hv == hvs[0], "search 0 repeated: hypervolume %v, first run %v", hv, hvs[0])
	}
	if len(walls) == 0 {
		return out, nil
	}
	if !cfg.trace {
		searchMetrics(out.metrics, walls, evaluations, median(hvs)/warnerHV)
		out.metrics["setup_s"] = setup
		return out, nil
	}

	// The loop emits no events, so its ledger is each count times a unit
	// cost timed on the run's own inputs: the last search's front tuples
	// and objective points.
	u, err := multiUnitCosts(last, joint)
	if err != nil {
		return nil, err
	}
	evalsPer := float64(evaluations) / float64(len(walls))
	explainedMs := (evalsPer*(u.evaluate+u.meetsBound) + multiGenerations*(u.fitness+u.selection)) / 1e6
	m := out.metrics
	m["metrics.joint_evaluate_ns"] = u.evaluate
	m["metrics.joint_meets_bound_ns"] = u.meetsBound
	m["emoo.fitness_ns"] = u.fitness
	m["emoo.select_ns"] = u.selection
	m["core.evaluations"] = evalsPer
	m["core.front_hypervolume"] = mean(hvs)
	m["core.unexplained_ms"] = mean(walls) - explainedMs
	tracedMetrics(m, walls, evaluations)
	return out, nil
}

// multiUnits are search-multi's per-call costs in nanoseconds. fitness and
// selection are per generation: the loop assigns fitness to the union and
// to the new archive, and selects once.
type multiUnits struct {
	evaluate, meetsBound, fitness, selection float64
}

// unitDuration is how long each unit cost is sampled for.
const unitDuration = 60 * time.Millisecond

func multiUnitCosts(res core.MultiResult, joint []float64) (multiUnits, error) {
	var u multiUnits
	tuples := make([][]*rr.Matrix, len(res.Front))
	for i, ind := range res.Front {
		ms, err := ind.Matrices()
		if err != nil {
			return u, err
		}
		tuples[i] = ms
	}
	if len(tuples) == 0 {
		return u, fmt.Errorf("search-multi: no front to time unit costs on")
	}
	ws := metrics.NewJointWorkspace()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	u.evaluate = perCall(func(k int) {
		_, err := ws.Evaluate(tuples[k%len(tuples)], joint, multiRecords)
		note(err)
	})
	u.meetsBound = perCall(func(k int) {
		_, err := ws.MeetsBound(tuples[k%len(tuples)], joint, multiDelta)
		note(err)
	})

	// A union of population and archive, and an archive, cut from the
	// front's points.
	front := res.FrontPoints()
	union := make([]pareto.Point, 2*multiPopulation)
	for i := range union {
		union[i] = front[i%len(front)]
	}
	archive := union[:multiPopulation]
	es := emoo.NewScratch()
	ecfg := emoo.Config{KNearest: 1, Normalize: true}
	var fitness, selection time.Duration
	calls := 0
	for start := time.Now(); time.Since(start) < unitDuration; calls++ {
		t0 := time.Now()
		fit := es.AssignFitness(union, ecfg)
		t1 := time.Now()
		_, err := es.SelectEnvironment(union, fit, multiPopulation, ecfg)
		note(err)
		t2 := time.Now()
		es.AssignFitness(archive, ecfg)
		t3 := time.Now()
		fitness += t1.Sub(t0) + t3.Sub(t2)
		selection += t2.Sub(t1)
	}
	u.fitness = float64(fitness) / float64(calls)
	u.selection = float64(selection) / float64(calls)
	return u, firstErr
}

// perCall runs fn(0), fn(1), ... for unitDuration and returns the mean
// nanoseconds per call.
func perCall(fn func(k int)) float64 {
	calls := 0
	start := time.Now()
	for ; time.Since(start) < unitDuration || calls == 0; calls++ {
		fn(calls)
	}
	return float64(time.Since(start)) / float64(calls)
}
