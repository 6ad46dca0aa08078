// Command rrmine demonstrates privacy-preserving data mining on a CSV
// table: the table is disguised column by column with Warner randomized
// response (playing the data owners), and all mining runs on the disguised
// rows only (playing the collector) — reconstructed marginals, a decision
// tree for a chosen class attribute, and a naive-Bayes classifier. Clean
// and reconstructed numbers are printed side by side so the utility loss is
// visible.
//
// Usage:
//
//	rrmine -data table.csv -class approved [-warner 0.8] [-seed 1]
//	       [-tree] [-bayes] [-depth 3]
//
// The CSV needs a header row; category domains are inferred from the data.
// With -demo, a built-in synthetic loan table is used instead of -data.
//
// With -sketch N, the table pipeline is skipped for the large-domain mining
// demo: Zipf-distributed values over an N-category domain are disguised
// through the count-mean-sketch scheme (never materializing an N×N matrix),
// aggregated in the O(k·m) sketch collector, and the heavy hitters recovered
// by the chunked top-k scan — estimated vs true frequencies side by side.
//
// Observability: -trace file writes one JSONL event per mining stage (load,
// disguise, marginals, tree, independence, bayes) with wall-time and key
// outcomes (inspect with cmd/rrtrace or jq); -metrics-addr host:port serves
// expvar, pprof and /metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"optrr/internal/collector"
	"optrr/internal/dataset"
	"optrr/internal/mining"
	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/sketch"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	if !errors.Is(err, errFlagParse) {
		fmt.Fprintln(os.Stderr, err)
	}
	var usage usageError
	if errors.As(err, &usage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError marks an invocation error — a bad flag, input table or class
// attribute — which exits with status 2; any other error exits with 1.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// errFlagParse reports a flag-parse failure, which the flag set has already
// printed together with the usage text.
var errFlagParse = errors.New("rrmine: bad flags")

// run is the whole command: it parses args, runs the selected pipeline and
// writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rrmine", flag.ContinueOnError)
	var (
		dataPath     = fs.String("data", "", "CSV file with a header row")
		demo         = fs.Bool("demo", false, "use a built-in synthetic loan table")
		class        = fs.String("class", "", "class attribute for tree/bayes (default: last column)")
		warnerP      = fs.Float64("warner", 0.8, "Warner diagonal p used to disguise every attribute")
		seed         = fs.Uint64("seed", 1, "random seed")
		tree         = fs.Bool("tree", true, "build a decision tree")
		bayes        = fs.Bool("bayes", true, "train naive Bayes")
		independence = fs.Bool("independence", false, "print a pairwise chi-square dependence table")
		depth        = fs.Int("depth", 0, "max tree depth (0 = number of attributes)")
		sketchDomain = fs.Int("sketch", 0, "run the large-domain heavy-hitter demo over this many categories instead of the table pipeline")
		sketchN      = fs.Int("sketch-records", 200000, "records to draw in the -sketch demo")
		epsilon      = fs.Float64("epsilon", 4, "sketch inner k-RR privacy budget ε (with -sketch)")
		tracePath    = fs.String("trace", "", "write a JSONL run trace to this path")
		metricsAddr  = fs.String("metrics-addr", "", "serve expvar, pprof and /metrics on host:port while running")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{errFlagParse}
	}

	if err := validateFlags(*warnerP, *depth); err != nil {
		return usageError{err}
	}

	telem, err := obs.OpenCLI(*tracePath, *metricsAddr, "rrmine")
	if err != nil {
		return err
	}
	defer telem.Close()
	if telem.MetricsURL != "" {
		fmt.Fprintf(stdout, "metrics: %s/metrics\n", telem.MetricsURL)
	}
	// stage records one "rrmine.<name>" event with wall-time and outcome
	// fields, and mirrors the duration into the metric registry.
	stage := func(name string, start time.Time, fields obs.Fields) {
		elapsed := time.Since(start)
		telem.Registry.Gauge("rrmine.stage." + name + "_ms").Set(float64(elapsed.Microseconds()) / 1e3)
		if !telem.Recorder.Enabled() {
			return
		}
		if fields == nil {
			fields = obs.Fields{}
		}
		fields["ms"] = float64(elapsed.Microseconds()) / 1e3
		telem.Recorder.Record("rrmine."+name, fields)
	}

	if *sketchDomain > 0 {
		return runSketchDemo(stdout, *sketchDomain, *sketchN, *epsilon, *seed, stage)
	}

	stageStart := time.Now()
	table, err := loadTable(*dataPath, *demo, *seed)
	if err != nil {
		return usageError{err}
	}
	stage("load", stageStart, obs.Fields{"rows": table.Len(), "attributes": len(table.Attributes())})
	attrs := table.Attributes()
	classIdx := len(attrs) - 1
	if *class != "" {
		classIdx, err = table.AttributeIndex(*class)
		if err != nil {
			return usageError{err}
		}
	}
	fmt.Fprintf(stdout, "table: %d rows, %d attributes; class = %q\n",
		table.Len(), len(attrs), attrs[classIdx].Name)

	// Disguise (the data owners' side).
	stageStart = time.Now()
	rng := randx.New(*seed)
	ms := make([]*rr.Matrix, len(attrs))
	for d, a := range attrs {
		m, err := rr.Warner(len(a.Categories), *warnerP)
		if err != nil {
			return err
		}
		ms[d] = m
	}
	mr, err := mining.NewMultiRR(ms...)
	if err != nil {
		return err
	}
	disguised, err := mr.Disguise(table.Rows(), rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "disguised every attribute with Warner(p=%.2f); mining sees only disguised rows\n\n", *warnerP)
	stage("disguise", stageStart, obs.Fields{"rows": len(disguised), "warner": *warnerP})

	// Reconstructed marginals vs clean marginals.
	stageStart = time.Now()
	fmt.Fprintln(stdout, "reconstructed marginals (clean value in parentheses):")
	for d, a := range attrs {
		sub, err := mining.NewMultiRR(ms[d])
		if err != nil {
			return err
		}
		col := make([][]int, len(disguised))
		for i, row := range disguised {
			col[i] = []int{row[d]}
		}
		est, err := sub.EstimateJoint(col)
		if err != nil {
			return err
		}
		est = rr.Clip(est)
		clean, err := table.Marginal(d)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %s:\n", a.Name)
		for v, label := range a.Categories {
			fmt.Fprintf(stdout, "    %-12s %.4f (%.4f)\n", label, est[v], clean[v])
		}
	}
	stage("marginals", stageStart, obs.Fields{"attributes": len(attrs)})

	if *tree {
		stageStart = time.Now()
		fmt.Fprintln(stdout, "\ndecision tree (trained on the reconstructed joint):")
		joint, err := mr.EstimateJoint(disguised)
		if err != nil {
			return err
		}
		tr, err := mining.BuildTree(mr, joint, classIdx, mining.TreeConfig{MaxDepth: *depth})
		if err != nil {
			return err
		}
		acc, err := tr.Accuracy(table.Rows())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  accuracy on the CLEAN rows: %.1f%%\n", 100*acc)
		stage("tree", stageStart, obs.Fields{"accuracy": acc, "depth": *depth})
	}

	if *independence {
		stageStart = time.Now()
		fmt.Fprintln(stdout, "\npairwise dependence (chi-square on the reconstructed joints):")
		for a := 0; a < len(attrs); a++ {
			for b := a + 1; b < len(attrs); b++ {
				res, err := mining.ChiSquareIndependence(mr, disguised, a, b)
				if err != nil {
					return err
				}
				verdict := "independent"
				if res.Dependent(0.01) {
					verdict = "DEPENDENT"
				}
				fmt.Fprintf(stdout, "  %-10s vs %-10s  chi2=%8.1f  p=%.4f  V=%.3f  %s\n",
					attrs[a].Name, attrs[b].Name, res.Statistic, res.PValue, res.CramersV, verdict)
			}
		}
		stage("independence", stageStart, obs.Fields{"pairs": len(attrs) * (len(attrs) - 1) / 2})
	}

	if *bayes {
		stageStart = time.Now()
		nb, err := mining.TrainNaiveBayes(mr, disguised, classIdx, 1)
		if err != nil {
			return err
		}
		acc, err := nb.Accuracy(table.Rows())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nnaive Bayes (trained on disguised rows): %.1f%% accuracy on clean rows\n", 100*acc)
		stage("bayes", stageStart, obs.Fields{"accuracy": acc})
	}
	return nil
}

// validateFlags fails fast on flag values that would only be rejected after
// the table is loaded and disguising has begun.
func validateFlags(warnerP float64, depth int) error {
	if warnerP < 0 || warnerP > 1 {
		return fmt.Errorf("-warner must be in [0, 1], got %v", warnerP)
	}
	if depth < 0 {
		return fmt.Errorf("-depth must be non-negative, got %d", depth)
	}
	return nil
}

// runSketchDemo is the large-domain mining story end to end: Zipf values
// over a domain no dense matrix could cover, disguised record by record
// through the count-mean sketch, aggregated in the sketch collector, heavy
// hitters recovered by the chunked top-k scan.
func runSketchDemo(stdout io.Writer, domain, records int, epsilon float64, seed uint64, stage func(string, time.Time, obs.Fields)) error {
	if records <= 0 {
		return fmt.Errorf("-sketch-records must be positive, got %d", records)
	}
	if !(epsilon > 0) {
		return fmt.Errorf("-epsilon must be positive, got %v", epsilon)
	}
	const hashes, hashRange = 16, 256
	scheme, err := sketch.NewKRR(domain, hashes, hashRange, epsilon, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sketch demo: %d categories -> %d hash functions x %d cells (%.1f KiB of counters, ε=%.2g)\n",
		domain, hashes, hashRange, float64(scheme.ReportSpace()*8)/1024, epsilon)

	// Zipf(1) values: the data owners' side.
	stageStart := time.Now()
	cdf := make([]float64, domain)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	rng := randx.New(seed)
	values := make([]int, records)
	truth := make(map[int]float64, 16)
	for i := range values {
		u := rng.Float64() * sum
		lo, hi := 0, domain
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		values[i] = lo
		if lo < 16 {
			truth[lo] += 1 / float64(records)
		}
	}
	reports := make([]int, records)
	if err := scheme.DisguiseBatchInto(reports, values, seed+1, 0); err != nil {
		return err
	}
	stage("sketch_disguise", stageStart, obs.Fields{"records": records, "domain": domain})

	// Aggregation and discovery: the collector's side, which never sees a
	// true value and holds O(k·m) state; the only domain-sized allocation
	// is the debiased estimate vector the scan ranks.
	stageStart = time.Now()
	col := collector.New(scheme, 0)
	if err := col.IngestBatch(reports); err != nil {
		return err
	}
	// One fold and one debias of the full domain, then the chunked scan
	// over the debiased vector.
	freqs, err := col.Estimate()
	if err != nil {
		return err
	}
	hits, err := mining.TopK(mining.Frequencies(freqs), 10)
	if err != nil {
		return err
	}
	stage("sketch_mine", stageStart, obs.Fields{"hits": len(hits)})

	fmt.Fprintln(stdout, "top-10 heavy hitters (true frequency in parentheses):")
	for _, h := range hits {
		fmt.Fprintf(stdout, "  category %-8d %.4f (%.4f)\n", h.Category, h.Estimate, truth[h.Category])
	}
	return nil
}

// loadTable reads the CSV or synthesizes the demo table.
func loadTable(path string, demo bool, seed uint64) (*dataset.Table, error) {
	if demo == (path != "") {
		return nil, fmt.Errorf("exactly one of -data or -demo is required")
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadCSV(f, nil)
	}
	// Demo: loan approval depends on income and debt; region is noise.
	attrs := []dataset.Attribute{
		{Name: "income", Categories: []string{"low", "mid", "high"}},
		{Name: "debt", Categories: []string{"none", "some", "heavy"}},
		{Name: "region", Categories: []string{"north", "south"}},
		{Name: "approved", Categories: []string{"no", "yes"}},
	}
	// Assemble the joint: P(income)·P(debt)·P(region)·P(approved | income, debt).
	incomeP := []float64{0.4, 0.4, 0.2}
	debtP := []float64{0.3, 0.5, 0.2}
	regionP := []float64{0.55, 0.45}
	approve := func(income, debt int) float64 {
		switch {
		case income == 2:
			return 0.9
		case income == 1 && debt == 0:
			return 0.8
		case income == 1 && debt == 1:
			return 0.45
		case income == 0 && debt != 2:
			return 0.2
		default:
			return 0.05
		}
	}
	joint := make([]float64, 3*3*2*2)
	for i := 0; i < 3; i++ {
		for d := 0; d < 3; d++ {
			for r := 0; r < 2; r++ {
				pa := approve(i, d)
				base := incomeP[i] * debtP[d] * regionP[r]
				joint[((i*3+d)*2+r)*2+0] = base * (1 - pa)
				joint[((i*3+d)*2+r)*2+1] = base * pa
			}
		}
	}
	return dataset.SyntheticTable(attrs, joint, 40000, randx.New(seed))
}
