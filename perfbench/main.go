// Command perfbench is the repository benchmark. It runs one named workload
// from a seed for a fixed time, checks that the program's outputs are
// correct, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload search-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger, measured by timing calls into each
// layer's public functions from this package (the program itself is not
// instrumented further). --steady N runs a workload N times on the same seed,
// traced and untraced, as child processes and prints the median and
// quartiles of every metric plus the tracing overhead. See README.md for the
// workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is what a workload receives: everything else it derives from
// the seed.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// dir is a private scratch directory for snapshot files.
	dir string
	// countSkew is added to the report count the collection workloads
	// expect. Real runs leave it 0; a test sets it to show that a failed
	// check fails the run.
	countSkew int
}

// outcome is one run's result before it is printed.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// problems lists every failed correctness check.
	problems []string
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs one named traffic mix.
type workload func(cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"search-paper":         runSearchPaper,
	"search-multi":         runSearchMulti,
	"ingest-dense":         runIngestDense,
	"collect-sketch-mixed": runCollectSketchMixed,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: search-paper, search-multi, ingest-dense or collect-sketch-mixed")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints the per-layer ledger")
	steady := fs.Int("steady", 0, "run the workload this many times on the same seed, as child processes, and print quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if *steady > 0 {
		if err := runSteady(*name, *seed, *seconds, *steady, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	// Per-run scratch files (the collection snapshots) stay in the
	// checkout, under the directory run.sh builds into.
	workRoot := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out, err := w(runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     dir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 0 {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	return emit(out, *trace == 1, stdout, stderr)
}

// emit prints a run's result line and returns the exit code: 1 when a
// correctness check failed or an operation failed.
func emit(out *outcome, traced bool, stdout, stderr io.Writer) int {
	res, err := render(out, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
