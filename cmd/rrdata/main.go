// Command rrdata generates the synthetic categorical data sets used by the
// paper's experiments: one category index per output line, drawn from a
// named prior. It can also disguise an existing data file with a Warner
// matrix, producing the input a data collector would actually see.
//
// Examples:
//
//	rrdata -dist normal -categories 10 -records 10000 > normal.txt
//	rrdata -dist adult -records 30000 -seed 7 > adult.txt
//	rrdata -disguise normal.txt -categories 10 -warner 0.7 > disguised.txt
//	rrdata -disguise multi.csv -sizes 8,7,6,5,4,3 -warner 0.7 > disguised.csv
//
// With -sizes, each input line is a multi-attribute record (values separated
// by commas or spaces) and attribute d is disguised independently with
// Warner(-warner) over sizes[d] categories — the Kronecker-factored tuple
// kernel, so arbitrarily large product spaces never materialize a joint
// matrix.
//
// Sampling and disguising both run on the batched kernels: fixed
// 8192-record chunks with per-chunk streams derived from -seed, fanned out
// over -workers goroutines (default GOMAXPROCS). The output depends only on
// the seed, never on the worker count.
//
// Observability: -trace file writes a JSONL event per generate/disguise
// stage (inspect with cmd/rrtrace or jq); -metrics-addr host:port serves
// expvar, pprof and /metrics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"optrr/internal/dataset"
	"optrr/internal/obs"
	"optrr/internal/rr"
)

func main() {
	var (
		dist        = flag.String("dist", "normal", "prior: normal, gamma, uniform, zipf, bimodal, adult")
		categories  = flag.Int("categories", 10, "number of categories")
		records     = flag.Int("records", 10000, "number of records")
		seed        = flag.Uint64("seed", 1, "random seed")
		disguise    = flag.String("disguise", "", "disguise this data file instead of generating")
		warnerP     = flag.Float64("warner", 0.7, "Warner diagonal p for -disguise")
		sizesFlag   = flag.String("sizes", "", "comma-separated per-attribute category counts; with -disguise, treat each line as a multi-attribute record")
		workers     = flag.Int("workers", 0, "worker goroutines for sampling and disguising (0 = GOMAXPROCS); output does not depend on this")
		tracePath   = flag.String("trace", "", "write a JSONL run trace to this path")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar, pprof and /metrics on host:port while running")
	)
	flag.Parse()

	if err := validateFlags(*categories, *records, *warnerP); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(sizes) > 0 && *disguise == "" {
		fmt.Fprintln(os.Stderr, "-sizes requires -disguise")
		os.Exit(2)
	}

	telem, err := obs.OpenCLI(*tracePath, *metricsAddr, "rrdata")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer telem.Close()
	if telem.MetricsURL != "" {
		fmt.Fprintf(os.Stderr, "metrics: %s/metrics\n", telem.MetricsURL)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *disguise != "" {
		start := time.Now()
		var n int
		if len(sizes) > 0 {
			n, err = disguiseTupleFile(*disguise, sizes, *warnerP, *seed, *workers, out)
		} else {
			n, err = disguiseFile(*disguise, *categories, *warnerP, *seed, *workers, out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		telem.Registry.Counter("rrdata.records_out").Add(int64(n))
		if telem.Recorder.Enabled() {
			telem.Recorder.Record("rrdata.disguise", obs.Fields{
				"input":   *disguise,
				"records": n,
				"warner":  *warnerP,
				"workers": *workers,
				"sizes":   *sizesFlag,
				"ms":      float64(time.Since(start).Microseconds()) / 1e3,
			})
		}
		return
	}

	g, ok := dataset.NamedGenerator(*dist, *categories)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -dist %q\n", *dist)
		os.Exit(2)
	}
	start := time.Now()
	d, err := generate(g, *categories, *records, *seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, rec := range d.Records() {
		fmt.Fprintln(out, rec)
	}
	telem.Registry.Counter("rrdata.records_out").Add(int64(len(d.Records())))
	if telem.Recorder.Enabled() {
		telem.Recorder.Record("rrdata.generate", obs.Fields{
			"dist":       *dist,
			"categories": *categories,
			"records":    len(d.Records()),
			"ms":         float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
}

// validateFlags fails fast on flag values that rr or dataset would only
// reject after the generator has started producing output.
func validateFlags(categories, records int, warnerP float64) error {
	if categories < 2 {
		return fmt.Errorf("-categories must be at least 2, got %d", categories)
	}
	if records <= 0 {
		return fmt.Errorf("-records must be positive, got %d", records)
	}
	if warnerP < 0 || warnerP > 1 {
		return fmt.Errorf("-warner must be in [0, 1], got %v", warnerP)
	}
	return nil
}

// generate samples a data set from the generator's prior with the batched
// sampler: fixed chunks with per-chunk seed-derived streams, so the output
// depends only on the seed, not the worker count.
func generate(g dataset.Generator, categories, records int, seed uint64, workers int) (*dataset.Categorical, error) {
	prior := g.Prior(categories)
	d, err := dataset.SampleBatch(prior, records, seed, workers)
	if err != nil {
		return nil, fmt.Errorf("rrdata: generator %q: %w", g.Name, err)
	}
	return d, nil
}

// parseSizes parses the -sizes flag: a comma-separated list of per-attribute
// category counts, each at least 2. Empty input means single-attribute mode.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, len(parts))
	for d, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-sizes: attribute %d: %v", d, err)
		}
		if n < 2 {
			return nil, fmt.Errorf("-sizes: attribute %d must have at least 2 categories, got %d", d, n)
		}
		sizes[d] = n
	}
	return sizes, nil
}

// disguiseTupleFile disguises a multi-attribute data file — one record per
// line, attribute values separated by commas or spaces — applying
// Warner(p) over sizes[d] categories to attribute d with the batched tuple
// kernel. Output records are comma-separated. Returns how many records it
// wrote.
func disguiseTupleFile(path string, sizes []int, p float64, seed uint64, workers int, out *bufio.Writer) (int, error) {
	ms := make([]*rr.Matrix, len(sizes))
	for d, n := range sizes {
		m, err := rr.Warner(n, p)
		if err != nil {
			return 0, fmt.Errorf("attribute %d: %w", d, err)
		}
		ms[d] = m
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var recs [][]int
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
		if len(fields) != len(sizes) {
			return 0, fmt.Errorf("%s:%d: %d attributes, want %d", path, line, len(fields), len(sizes))
		}
		rec := make([]int, len(fields))
		for d, fld := range fields {
			v, err := strconv.Atoi(fld)
			if err != nil {
				return 0, fmt.Errorf("%s:%d: attribute %d: %v", path, line, d, err)
			}
			rec[d] = v
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	disguised, err := rr.TupleDisguiseBatch(ms, recs, seed, workers)
	if err != nil {
		return 0, err
	}
	var sb strings.Builder
	for _, rec := range disguised {
		sb.Reset()
		for d, v := range rec {
			if d > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(v))
		}
		fmt.Fprintln(out, sb.String())
	}
	return len(disguised), nil
}

// disguiseFile disguises every record of path with Warner(p) using the
// batched disguise kernel and returns how many records it wrote.
func disguiseFile(path string, n int, p float64, seed uint64, workers int, out *bufio.Writer) (int, error) {
	m, err := rr.Warner(n, p)
	if err != nil {
		return 0, err
	}
	recs, err := dataset.ReadIndices(path)
	if err != nil {
		return 0, err
	}
	disguised, err := m.DisguiseBatch(recs, seed, workers)
	if err != nil {
		return 0, err
	}
	for _, rec := range disguised {
		fmt.Fprintln(out, rec)
	}
	return len(disguised), nil
}
