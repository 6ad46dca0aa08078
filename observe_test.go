package optrr

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func smallProblem() Problem {
	return Problem{
		Prior:       []float64{0.4, 0.3, 0.2, 0.1},
		Records:     1000,
		Delta:       0.8,
		Seed:        3,
		Generations: 5,
	}
}

// TestOptimizeWritesParseableJSONLTrace drives the public API the way
// `optrr -trace run.jsonl` does and checks the trace parses line by line
// with the documented envelope.
func TestOptimizeWritesParseableJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONLRecorder(&buf)
	p := smallProblem()
	p.Recorder = rec
	if _, err := Optimize(p); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	// One start event, a generation + convergence pair per generation, one
	// done event.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2*p.Generations+2 {
		t.Fatalf("got %d trace lines, want %d", len(lines), 2*p.Generations+2)
	}
	var names []string
	for i, line := range lines {
		var parsed map[string]any
		if err := json.Unmarshal([]byte(line), &parsed); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"ts", "seq", "event"} {
			if _, ok := parsed[key]; !ok {
				t.Fatalf("line %d missing envelope key %q: %s", i, key, line)
			}
		}
		if parsed["seq"] != float64(i) {
			t.Fatalf("line %d has seq %v", i, parsed["seq"])
		}
		names = append(names, parsed["event"].(string))
	}
	if names[0] != "optimizer.start" || names[len(names)-1] != "optimizer.done" {
		t.Fatalf("event order = %v", names)
	}
	for g := 0; g < p.Generations; g++ {
		if names[2*g+1] != "optimizer.generation" {
			t.Fatalf("event %d = %q", 2*g+1, names[2*g+1])
		}
		if names[2*g+2] != "optimizer.convergence" {
			t.Fatalf("event %d = %q", 2*g+2, names[2*g+2])
		}
	}
}

// TestOptimizeServesLiveMetrics runs a search with a registry and asserts
// the counters are visible over the debug HTTP server afterwards.
func TestOptimizeServesLiveMetrics(t *testing.T) {
	reg := NewMetrics()
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := smallProblem()
	p.Metrics = reg
	res, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	evals, ok := served["optimizer.evaluations"].(float64)
	if !ok || evals <= 0 || evals > float64(res.Evaluations) {
		t.Fatalf("served optimizer.evaluations = %v (run had %d)", served["optimizer.evaluations"], res.Evaluations)
	}
	if served["optimizer.generation"] != float64(p.Generations-1) {
		t.Fatalf("served optimizer.generation = %v", served["optimizer.generation"])
	}

	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", pp.StatusCode)
	}
}

// TestInstrumentedCollectionFacade exercises the collector
// instrumentation through the public aliases.
func TestInstrumentedCollectionFacade(t *testing.T) {
	m, err := Warner(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewMemoryRecorder()
	reg := NewMetrics()
	c := NewCollector(m, 1)
	c.Instrument(rec, reg)
	if err := c.IngestBatch([]int{0, 1, 2, 3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(1.96); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("collector.reports").Value(); got != 6 {
		t.Fatalf("collector.reports = %d", got)
	}
	if len(rec.Named("collector.snapshot")) != 1 {
		t.Fatal("no snapshot event through the facade")
	}
}
