// Command optrr searches for optimal randomized-response matrices for a
// given categorical prior and privacy bound, printing the Pareto front and,
// optionally, the matrix meeting a requested privacy level.
//
// The prior comes from one of three sources:
//
//	-prior 0.4,0.3,0.2,0.1      explicit probabilities
//	-dist normal|gamma|uniform|zipf|bimodal|adult  a named synthetic prior
//	-data file                  one category index per line; the empirical
//	                            distribution is used
//
// Examples:
//
//	optrr -dist normal -categories 10 -delta 0.8
//	optrr -prior 0.5,0.3,0.2 -delta 0.7 -pick-privacy 0.45 -show-matrix
//	optrr -data records.txt -categories 10 -delta 0.8 -csv front.csv
//	optrr -dist normal -categories 6 -delta 0.8 -objectives ldp,mi
//
// -objectives adds extra optimization axes from the objective registry
// (ldp-epsilon, mutual-information, worst-mse; aliases ldp and mi resolve):
// the search returns a k-dimensional front and both the listing and -csv
// gain one column per extra objective.
//
// Observability: -trace file writes a JSONL run trace (per-generation
// timing, front and convergence events — analyze it with cmd/rrtrace:
// phase breakdowns, convergence-curve CSVs, A/B run comparison);
// -metrics-addr host:port serves live expvar, pprof and the metric registry
// while the search (and any -collect campaign) runs — /metrics speaks JSON
// by default and the Prometheus text format under content negotiation;
// -collect N simulates a collection campaign of N disguised reports through
// the picked matrix with an instrumented concurrency-safe collector.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"optrr"
	"optrr/internal/core"
	"optrr/internal/dataset"
	"optrr/internal/obs"
)

func main() {
	var (
		priorFlag   = flag.String("prior", "", "comma-separated category probabilities")
		distFlag    = flag.String("dist", "", "named prior: normal, gamma, uniform, zipf, bimodal, adult")
		dataFlag    = flag.String("data", "", "file with one category index per line")
		categories  = flag.Int("categories", 10, "number of categories for -dist/-data priors")
		records     = flag.Int("records", 10000, "data-set size N for the utility metric")
		delta       = flag.Float64("delta", 0.8, "worst-case posterior bound (Equation 9)")
		generations = flag.Int("generations", 3000, "EMO generation budget (the paper used 20000)")
		seed        = flag.Uint64("seed", 1, "random seed")
		workers     = flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS); results are identical at every count")
		islands     = flag.Int("islands", 0, "island-model sub-populations (0 or 1 = single-population search)")
		migrate     = flag.Int("migrate-every", 0, "migration interval in generations for -islands (0 = default 25)")
		objectives  = flag.String("objectives", "", "comma-separated extra objectives beyond privacy/utility (e.g. ldp,mi; see registry names)")
		pickPrivacy = flag.Float64("pick-privacy", -1, "print the best matrix with at least this privacy")
		showMatrix  = flag.Bool("show-matrix", false, "print the picked matrix")
		savePath    = flag.String("save", "", "write the picked matrix as JSON to this path")
		csvPath     = flag.String("csv", "", "write the front as CSV to this path")
		quiet       = flag.Bool("quiet", false, "suppress the front listing")
		tracePath   = flag.String("trace", "", "write a JSONL run trace to this path")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar, pprof and /metrics on host:port while running")
		collectN    = flag.Int("collect", 0, "simulate a collection campaign of this many reports through the picked matrix")
		timeout     = flag.Duration("timeout", 0, "stop the search after this long and report the best-so-far front (0 = no limit); Ctrl-C does the same")
	)
	flag.Parse()

	if err := validateFlags(*records, *delta, *generations, *collectN, *workers, *islands, *migrate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prior, err := resolvePrior(*priorFlag, *distFlag, *dataFlag, *categories)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	telem, err := obs.OpenCLI(*tracePath, *metricsAddr, "optrr")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer telem.Close()
	if telem.MetricsURL != "" {
		fmt.Printf("metrics: %s/metrics  %s/debug/vars  %s/debug/pprof/\n",
			telem.MetricsURL, telem.MetricsURL, telem.MetricsURL)
	}

	cfg := core.DefaultConfig(prior, *records, *delta)
	cfg.Generations = *generations
	cfg.Workers = *workers
	cfg.Islands = *islands
	cfg.MigrateEvery = *migrate
	prob := optrr.Problem{
		Prior:    prior,
		Records:  *records,
		Delta:    *delta,
		Seed:     *seed,
		Advanced: &cfg,
	}
	if *objectives != "" {
		for _, name := range strings.Split(*objectives, ",") {
			prob.ExtraObjectives = append(prob.ExtraObjectives, strings.TrimSpace(name))
		}
	}
	if *tracePath != "" {
		prob.Recorder = telem.Recorder
	}
	if *metricsAddr != "" {
		prob.Metrics = telem.Registry
	}
	// Ctrl-C (and -timeout) stop the search at the next generation boundary;
	// the best-so-far front is still reported, so a long run interrupted
	// late loses nothing but the remaining budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := optrr.OptimizeContext(ctx, prob)
	if err != nil {
		if res == nil || len(res.Front) == 0 ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "search interrupted (%v); reporting the best-so-far front\n", err)
	}
	fmt.Printf("prior: %s\n", formatVec(prior))
	fmt.Printf("front: %d optimal matrices in %v (%d evaluations)\n",
		len(res.Front), time.Since(start).Round(time.Millisecond), res.Evaluations)

	// Extra objective axes of the run, in point order, with their values in
	// natural orientation; both empty for the default two-objective search,
	// keeping the legacy output byte-identical.
	extraNames := res.Objectives()[2:]
	extraCols := make([][]float64, len(extraNames))
	for t, name := range extraNames {
		extraCols[t], _ = res.ObjectiveValues(name)
	}

	if !*quiet {
		header := "privacy    utility(MSE)"
		for _, name := range extraNames {
			header += "  " + name
		}
		fmt.Println(header)
		for i, p := range res.Front {
			fmt.Printf("%.4f     %.6e", p.Privacy, p.Utility)
			for t := range extraCols {
				fmt.Printf("  %.6g", extraCols[t][i])
			}
			fmt.Println()
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, strings.Join(append([]string{"privacy", "utility"}, extraNames...), ","))
		for i, p := range res.Front {
			fmt.Fprintf(w, "%g,%g", p.Privacy, p.Utility)
			for t := range extraCols {
				fmt.Fprintf(w, ",%g", extraCols[t][i])
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("front written to %s\n", *csvPath)
	}

	var picked *optrr.Matrix
	if *pickPrivacy >= 0 {
		m, ok := res.MatrixWithPrivacyAtLeast(*pickPrivacy)
		if !ok {
			fmt.Fprintf(os.Stderr, "no matrix reaches privacy %.3f (front max %.3f)\n",
				*pickPrivacy, res.Front[len(res.Front)-1].Privacy)
			os.Exit(1)
		}
		ev, err := optrr.Evaluate(m, prior, *records)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("picked: privacy %.4f, utility %.6e, max posterior %.4f, LDP epsilon %.3f\n",
			ev.Privacy, ev.Utility, ev.MaxPosterior, optrr.LocalDPEpsilon(m))
		if *showMatrix {
			fmt.Println(m)
		}
		if *savePath != "" {
			data, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(*savePath, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("matrix written to %s\n", *savePath)
		}
		picked = m
	}

	if *collectN > 0 {
		m := picked
		if m == nil {
			// No -pick-privacy: take the middle of the front.
			m = res.Matrices()[len(res.Front)/2]
		}
		if err := simulateCollection(m, prior, *collectN, *seed, telem); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// simulateCollection plays a collection campaign: *collectN respondents draw
// their true value from the prior, disguise it with m, and report to an
// instrumented collector that snapshots its running
// reconstruction after every batch. With -metrics-addr this is the
// long-running scenario worth watching over expvar/pprof.
func simulateCollection(m *optrr.Matrix, prior []float64, n int, seed uint64, telem *obs.CLI) error {
	c := optrr.NewCollector(m, 1)
	c.Instrument(telem.Recorder, telem.Registry)
	rng := optrr.NewRand(seed + 1)

	cum := make([]float64, len(prior))
	var acc float64
	for i, p := range prior {
		acc += p
		cum[i] = acc
	}
	draw := func() int {
		u := rng.Float64() * acc
		for i, edge := range cum {
			if u < edge {
				return i
			}
		}
		return len(cum) - 1
	}

	const batch = 1000
	start := time.Now()
	buf := make([]int, 0, batch)
	for i := 0; i < n; i++ {
		buf = append(buf, draw())
		if len(buf) == batch || i == n-1 {
			disguised, err := m.Disguise(buf, rng)
			if err != nil {
				return err
			}
			if err := c.IngestBatch(disguised); err != nil {
				return err
			}
			if _, err := c.Snapshot(1.96); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	sum, err := c.Snapshot(1.96)
	if err != nil {
		return err
	}
	margin, err := c.MarginOfError(1.96)
	if err != nil {
		return err
	}
	fmt.Printf("\ncollection: %d reports in %v; reconstruction (±95%% half-width):\n",
		sum.Reports, time.Since(start).Round(time.Millisecond))
	for k, est := range sum.Estimate {
		fmt.Printf("  c%-3d %.4f ±%.4f (true %.4f)\n", k, est, sum.HalfWidth[k], prior[k])
	}
	fmt.Printf("worst-case margin of error: ±%.4f\n", margin)
	return nil
}

// validateFlags fails fast on flag values that would otherwise surface as a
// confusing optimizer or collector error minutes into a run.
func validateFlags(records int, delta float64, generations, collectN, workers, islands, migrate int) error {
	if records <= 0 {
		return fmt.Errorf("-records must be positive, got %d", records)
	}
	if !(delta > 0 && delta <= 1) { // NaN fails both comparisons
		return fmt.Errorf("-delta must be in (0, 1], got %v", delta)
	}
	if generations <= 0 {
		return fmt.Errorf("-generations must be positive, got %d", generations)
	}
	if collectN < 0 {
		return fmt.Errorf("-collect must be non-negative, got %d", collectN)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", workers)
	}
	if islands < 0 {
		return fmt.Errorf("-islands must be non-negative, got %d", islands)
	}
	if migrate < 0 {
		return fmt.Errorf("-migrate-every must be non-negative, got %d", migrate)
	}
	return nil
}

func resolvePrior(priorFlag, distFlag, dataFlag string, n int) ([]float64, error) {
	set := 0
	for _, s := range []string{priorFlag, distFlag, dataFlag} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("exactly one of -prior, -dist, -data is required")
	}
	switch {
	case priorFlag != "":
		parts := strings.Split(priorFlag, ",")
		prior := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-prior entry %d: %v", i, err)
			}
			prior[i] = v
		}
		if err := dataset.ValidateDistribution(prior); err != nil {
			return nil, err
		}
		return prior, nil
	case distFlag != "":
		g, ok := dataset.NamedGenerator(distFlag, n)
		if !ok {
			return nil, fmt.Errorf("unknown -dist %q", distFlag)
		}
		return g.Prior(n), nil
	default:
		recs, err := dataset.ReadIndices(dataFlag)
		if err != nil {
			return nil, err
		}
		d, err := dataset.NewCategorical(n, recs)
		if err != nil {
			return nil, err
		}
		return d.Distribution(), nil
	}
}

func formatVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
