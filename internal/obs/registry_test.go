package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if got := c.String(); got != "42" {
		t.Fatalf("String = %q, want \"42\"", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(-0.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("Value = %v, want 1.25", got)
	}
	if got := g.String(); got != "1.25" {
		t.Fatalf("String = %q, want \"1.25\"", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 3, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 1054.5 {
		t.Fatalf("Sum = %v, want 1054.5", got)
	}
	// Upper-bound-inclusive buckets: (-Inf,1], (1,10], (10,100], (100,+Inf).
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	var parsed struct {
		Count   int64            `json:"count"`
		Sum     float64          `json:"sum"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(h.String()), &parsed); err != nil {
		t.Fatalf("String is not valid JSON: %v\n%s", err, h.String())
	}
	if parsed.Count != 5 || parsed.Buckets["+Inf"] != 1 {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits")
	c1.Add(7)
	if c2 := r.Counter("hits"); c2 != c1 {
		t.Fatal("second Counter lookup returned a different instance")
	}
	r.Gauge("temp").Set(3)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)

	snap := r.Snapshot()
	if snap["hits"] != "7" || snap["temp"] != "3" {
		t.Fatalf("Snapshot = %v", snap)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("hits")
}

// TestCounterFunc: a func-backed counter renders exactly like a plain one
// holding the same value — in Value, the JSON document and the Prometheus
// exposition — stays reachable through Registry.Counter, reads fn at every
// call, and takes a new fn when registered again.
func TestCounterFunc(t *testing.T) {
	plain, funcs := NewRegistry(), NewRegistry()
	plain.Counter("reports").Add(42)
	var n int64 = 42
	fc := funcs.CounterFunc("reports", func() int64 { return n })
	fc.Inc() // ignored: the value comes from fn

	if got := funcs.Counter("reports"); got != fc || got.Value() != 42 {
		t.Fatalf("Counter lookup = %p (Value %d), want %p (42)", got, got.Value(), fc)
	}
	if p, f := plain.String(), funcs.String(); p != f {
		t.Fatalf("JSON rendering %s, want %s", f, p)
	}
	var p, f strings.Builder
	if err := plain.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if err := funcs.WritePrometheus(&f); err != nil {
		t.Fatal(err)
	}
	if p.String() != f.String() {
		t.Fatalf("Prometheus exposition %q, want %q", f.String(), p.String())
	}

	n = 50
	if got := fc.String(); got != "50" {
		t.Fatalf("String after the source moved = %q, want \"50\"", got)
	}
	if again := funcs.CounterFunc("reports", func() int64 { return 7 }); again != fc || fc.Value() != 7 {
		t.Fatalf("re-registered CounterFunc: Value %d, want 7 on the same counter", fc.Value())
	}
}

func TestRegistryStringIsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(0.5)
	r.Histogram("c", []float64{1}).Observe(2)
	var parsed map[string]any
	if err := json.Unmarshal([]byte(r.String()), &parsed); err != nil {
		t.Fatalf("String is not valid JSON: %v\n%s", err, r.String())
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := parsed[k]; !ok {
			t.Errorf("missing key %q in %s", k, r.String())
		}
	}
	// Deterministic (sorted) key order.
	s := r.String()
	if !(strings.Index(s, `"a"`) < strings.Index(s, `"b"`) && strings.Index(s, `"b"`) < strings.Index(s, `"c"`)) {
		t.Fatalf("keys not sorted: %s", s)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{500}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestMetricUpdatesAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 4})
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("metric updates allocated %v times per run, want 0", n)
	}
}
