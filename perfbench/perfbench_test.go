package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// Ledger tolerances, as shares of the measured wall time; README.md states
// them too.
const (
	// searchLedgerTolerance bounds the part of a search-paper search that
	// the four phase timers do not cover (seeding, the final front and the
	// per-generation statistics the traced run asks for).
	searchLedgerTolerance = 0.15
	// ingestLedgerTolerance bounds the part of an ingest-dense batch that
	// disguise, encode, transport and handler do not cover (response
	// decode, request building, and contention between the parts, which
	// are timed apart).
	ingestLedgerTolerance = 0.25
)

// TestMetricListsMatchBenchmarkJSON keeps the metric lists in metrics.go and
// BENCHMARK.json in step: same names, units and directions, in order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, metrics.go %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd)
	compare("per_layer", bench.PerLayer, perLayer)
	for _, s := range bench.EndToEnd {
		if !(s.Bound > 0 && s.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
}

// TestCountMismatchFailsRun shows the count check is live: the same run
// passes as is and exits non-zero when it expects one report more than the
// server acknowledged.
func TestCountMismatchFailsRun(t *testing.T) {
	for _, skew := range []int{0, 1} {
		out, err := runIngestDense(runConfig{seed: 7, seconds: 500 * time.Millisecond, dir: t.TempDir(), countSkew: skew})
		if err != nil {
			t.Fatal(err)
		}
		out.metrics["peak_rss_mb"] = peakRSSMB()
		var stdout, stderr bytes.Buffer
		code := emit(out, false, &stdout, &stderr)
		if skew == 0 && code != 0 {
			t.Fatalf("unskewed run exited %d: %s", code, stderr.String())
		}
		if skew == 1 {
			if code == 0 {
				t.Fatal("a run whose count check mismatched exited 0")
			}
			if !strings.Contains(stderr.String(), "server counts") {
				t.Errorf("the failure does not name the count check: %s", stderr.String())
			}
			if !strings.Contains(stdout.String(), `"correct":false`) {
				t.Errorf("the result line does not report correct=false: %s", stdout.String())
			}
		}
	}
}

// TestSearchLedgerCloses checks that on search-paper the four phase sums
// account for the measured search time within searchLedgerTolerance.
func TestSearchLedgerCloses(t *testing.T) {
	out := tracedRun(t, runSearchPaper)
	m := out.metrics
	phases := m["core.select_ms"] + m["core.vary_ms"] + m["core.eval_ms"] + m["core.omega_ms"]
	wall := phases + m["core.unexplained_ms"]
	share := math.Abs(m["core.unexplained_ms"]) / wall
	t.Logf("search-paper: %.1f ms of %.1f ms unexplained (%.1f%%)", m["core.unexplained_ms"], wall, 100*share)
	if share > searchLedgerTolerance {
		t.Errorf("phases %.1f ms leave %.1f ms of a %.1f ms search unexplained (%.0f%% > %.0f%%)",
			phases, m["core.unexplained_ms"], wall, 100*share, 100*searchLedgerTolerance)
	}
	if m["emoo.fitness_ms"]+m["emoo.truncate_ms"] > m["core.select_ms"]+m["core.vary_ms"] {
		t.Errorf("emoo time %.1f ms exceeds the select and vary phases that contain it (%.1f ms)",
			m["emoo.fitness_ms"]+m["emoo.truncate_ms"], m["core.select_ms"]+m["core.vary_ms"])
	}
}

// TestIngestLedgerCloses checks that on ingest-dense a batch's client-side
// wall time (disguise plus round trip) is accounted for by disguise, encode,
// transport and handler, each timed on its own, within
// ingestLedgerTolerance.
func TestIngestLedgerCloses(t *testing.T) {
	out := tracedRun(t, runIngestDense)
	m := out.metrics
	wall := m["rrclient.disguise_ns"]*batchSize + m["http.roundtrip_ns"]
	share := math.Abs(m["ingest.unexplained_ns"]) / wall
	t.Logf("ingest-dense: %.0f ns of %.0f ns per batch unexplained (%.1f%%)", m["ingest.unexplained_ns"], wall, 100*share)
	if share > ingestLedgerTolerance {
		t.Errorf("the parts leave %.0f ns of a %.0f ns batch unexplained (%.0f%% > %.0f%%): %v",
			m["ingest.unexplained_ns"], wall, 100*share, 100*ingestLedgerTolerance, m)
	}
}

// TestSearchMultiReportsResidual checks that the search-multi ledger is
// filled and its residual is a share of the search, not more.
func TestSearchMultiReportsResidual(t *testing.T) {
	out := tracedRun(t, runSearchMulti)
	m := out.metrics
	for _, k := range []string{"metrics.joint_evaluate_ns", "metrics.joint_meets_bound_ns", "emoo.fitness_ns", "emoo.select_ns"} {
		if !(m[k] > 0) {
			t.Errorf("%s = %v, want a positive unit cost", k, m[k])
		}
	}
	if r := m["core.unexplained_ms"] / m["traced.op_ms"]; math.Abs(r) >= 1 {
		t.Errorf("residual %.1f ms is not a share of the %.1f ms search", m["core.unexplained_ms"], m["traced.op_ms"])
	}
}

// tracedRun runs a workload briefly with the per-layer ledger on and fails
// the test on any correctness problem.
func tracedRun(t *testing.T, w workload) *outcome {
	t.Helper()
	out, err := w(runConfig{seed: 11, seconds: 1500 * time.Millisecond, trace: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 || out.failed > 0 {
		t.Fatalf("%d failed operations, problems: %v", out.failed, out.problems)
	}
	if _, err := render(out, true); err != nil {
		t.Fatal(err)
	}
	return out
}
