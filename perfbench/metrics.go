package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec names one reported metric. The lists below are the contract
// BENCHMARK.json repeats; TestMetricListsMatchBenchmarkJSON keeps the two in
// step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd metrics come from untraced runs. Every workload reports every one
// of them, each for its own unit operation (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"quality", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer metrics come from traced runs. A layer a workload does not run
// reads 0 there.
var perLayer = []metricSpec{
	// Search, from the optimizer.generation events of search-paper (per
	// search).
	{"core.select_ms", "ms", "lower"},
	{"core.vary_ms", "ms", "lower"},
	{"core.eval_ms", "ms", "lower"},
	{"core.omega_ms", "ms", "lower"},
	{"emoo.fitness_ms", "ms", "lower"},
	{"emoo.truncate_ms", "ms", "lower"},
	{"core.evaluations", "count", "lower"},
	{"core.repairs", "count", "lower"},
	{"core.redraws", "count", "lower"},
	{"core.redraw_ratio", "ratio", "lower"},
	{"core.front_hypervolume", "area", "higher"},
	{"core.unexplained_ms", "ms", "lower"},
	// Search, unit costs timed on search-multi's own inputs.
	{"metrics.joint_evaluate_ns", "ns", "lower"},
	{"metrics.joint_meets_bound_ns", "ns", "lower"},
	{"emoo.fitness_ns", "ns", "lower"},
	{"emoo.select_ns", "ns", "lower"},
	// Ingest path of both collection workloads.
	{"rrclient.disguise_ns", "ns", "lower"},
	{"rrapi.encode_ns", "ns", "lower"},
	{"rrapi.request_bytes", "B", "lower"},
	{"http.roundtrip_ns", "ns", "lower"},
	{"rrserver.handler_ns", "ns", "lower"},
	{"transport_ns", "ns", "lower"},
	{"ingest.unexplained_ns", "ns", "lower"},
	{"ingest.batch_p50_ms", "ms", "lower"},
	{"ingest.batch_p99_ms", "ms", "lower"},
	{"rrapi.decode_ns", "ns", "lower"},
	{"collector.ingest_ns", "ns", "lower"},
	{"collector.ingest_instrumented_ns", "ns", "lower"},
	{"rrserver.snapshot_ms", "ms", "lower"},
	{"rrserver.snapshot_bytes", "B", "lower"},
	{"rrserver.restore_ms", "ms", "lower"},
	{"rrclient.scheme_fetch_ms", "ms", "lower"},
	// Read path of collect-sketch-mixed.
	{"rrserver.estimate_handler_ms", "ms", "lower"},
	{"rrserver.heavyhitters_handler_ms", "ms", "lower"},
	{"collector.estimate_ms", "ms", "lower"},
	{"collector.heavyhitters_ms", "ms", "lower"},
	{"rrapi.response_bytes", "B", "lower"},
	{"query.generator_lag_ms", "ms", "lower"},
	// The traced run's own end-to-end figures; against the untraced run's
	// they give the tracing overhead.
	{"traced.op_ms", "ms", "lower"},
	{"traced.op_tail_ms", "ms", "lower"},
	{"traced.throughput_per_s", "1/s", "higher"},
}

// render turns an outcome into the printed result, checking that the
// workload filled exactly the metric set of its mode.
func render(out *outcome, traced bool) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	known := make(map[string]bool, len(specs))
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		known[s.name] = true
		v, ok := out.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", s.name, v)
		}
		if !traced && !(ok && v > 0) {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for name := range out.metrics {
		if !known[name] {
			return result{}, fmt.Errorf("metric %s is not in the %s list", name, modeName(traced))
		}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func modeName(traced bool) string {
	if traced {
		return "per-layer"
	}
	return "end-to-end"
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// percentile reads the q-quantile of sorted values by linear interpolation
// between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method, which is how the benchmark's spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// runSteady is the steadiness mode: runs untraced and traced child processes
// runs times each on the same seed and prints, per metric, the median,
// quartiles and the quartile spread as a share of the median, then the
// tracing overhead (traced end-to-end figures against the untraced ones).
func runSteady(name string, seed uint64, seconds float64, runs int, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	samples := [2]map[string][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for trace := 0; trace < 2; trace++ {
			cmd := exec.Command(exe,
				"--workload", name,
				"--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d trace %d: %w", i, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			var res result
			dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
			if err := dec.Decode(&res); err != nil {
				return fmt.Errorf("run %d trace %d: decoding result: %w", i, trace, err)
			}
			for k, v := range res.Metrics {
				samples[trace][k] = append(samples[trace][k], v.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "workload %s: %d runs of %gs each, untraced and traced, seed %d\n", name, runs, seconds, seed)
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		fmt.Fprintf(stdout, "\n%-34s %-6s %14s %14s %14s %8s\n", modeName(trace == 1), "unit", "median", "q1", "q3", "spread")
		for _, s := range specs {
			v := samples[trace][s.name]
			if allZero(v) {
				continue // a layer this workload does not run
			}
			q1, q2, q3 := quartiles(v)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
			}
			fmt.Fprintf(stdout, "%-34s %-6s %14.6g %14.6g %14.6g %8.3f\n", s.name, s.unit, q2, q1, q3, spread)
		}
	}
	fmt.Fprintf(stdout, "\ntracing overhead (traced median / untraced median - 1)\n")
	for _, s := range perLayer {
		base, ok := strings.CutPrefix(s.name, "traced.")
		if !ok {
			continue
		}
		_, t, _ := quartiles(samples[1][s.name])
		_, u, _ := quartiles(samples[0][base])
		fmt.Fprintf(stdout, "%-34s %+8.3f\n", base, t/u-1)
	}
	return nil
}
