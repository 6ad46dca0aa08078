package obs

import (
	"bytes"
	"expvar"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and allocation-free. A counter made by
// Registry.CounterFunc reads its value from a function instead of its own
// count.
type Counter struct {
	v  atomic.Int64
	fn atomic.Pointer[func() int64] // value source set by CounterFunc; nil reads v
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored to keep
// the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count, or the value function's result for a
// counter made by Registry.CounterFunc.
func (c *Counter) Value() int64 {
	if fn := c.fn.Load(); fn != nil {
		return (*fn)()
	}
	return c.v.Load()
}

// String implements expvar.Var.
func (c *Counter) String() string { return strconv.FormatInt(c.Value(), 10) }

// Gauge is a float-valued metric that can move in both directions. All
// methods are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// String implements expvar.Var. NaN and ±Inf have no JSON representation;
// they render as null so a single poisoned gauge cannot corrupt the whole
// /debug/vars or /metrics document (the Prometheus exposition keeps the
// exact values — its text format represents non-finite numbers).
func (g *Gauge) String() string { return jsonFloat(g.Value()) }

// jsonFloat renders a float64 as a JSON value: the shortest round-trip
// representation for finite values, null for NaN and ±Inf.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Histogram accumulates observations into fixed buckets defined by ascending
// upper bounds; one implicit +Inf bucket catches the overflow. Observation is
// allocation-free and lock-free (binary search + two atomic adds).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// It panics on unsorted or empty bounds — a programming error at wiring time.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCount returns the count of bucket i (i == len(bounds) is +Inf).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// String implements expvar.Var:
// {"count":n,"sum":s,"buckets":{"0.5":1,...,"+Inf":0},"p50":...,"p90":...,"p99":...}.
// The p50/p90/p99 keys are the bucket-interpolated quantile snapshot (see
// Quantile). A non-finite sum (after observing NaN or ±Inf values) and the
// quantiles of an empty histogram render as null, like Gauge.String.
func (h *Histogram) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"count":%d,"sum":%s,"buckets":{`, h.Count(), jsonFloat(h.Sum()))
	for i, bound := range h.bounds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%s":%d`, strconv.FormatFloat(bound, 'g', -1, 64), h.counts[i].Load())
	}
	fmt.Fprintf(&b, `,"+Inf":%d}`, h.counts[len(h.bounds)].Load())
	fmt.Fprintf(&b, `,"p50":%s,"p90":%s,"p99":%s}`,
		jsonFloat(h.Quantile(0.50)), jsonFloat(h.Quantile(0.90)), jsonFloat(h.Quantile(0.99)))
	return b.String()
}

// Registry is a namespace of metrics. Lookups are get-or-create and safe for
// concurrent use; the returned metric pointers should be cached by hot paths
// so steady-state updates never touch the registry lock.
//
// A Registry implements expvar.Var, rendering every metric into one JSON
// object, so a whole registry publishes under a single expvar name:
//
//	reg.PublishExpvar("optrr")   // GET /debug/vars → {"optrr": {...}, ...}
type Registry struct {
	mu   sync.Mutex
	vars map[string]expvar.Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]expvar.Var)}
}

// Counter returns the counter with the given name, creating it if needed.
// It panics if the name is already taken by a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	v := r.getOrCreate(name, func() expvar.Var { return new(Counter) })
	c, ok := v.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a counter", name, v))
	}
	return c
}

// CounterFunc returns the counter with the given name, creating it if
// needed, and makes fn its value: Value, the JSON rendering and the
// Prometheus exposition call fn on every read instead of reading the
// counter's own count, which Inc and Add then no longer show. It suits a
// count already kept elsewhere that is cheaper to read at scrape time than
// to mirror on every update. fn must be safe for concurrent use and should
// never decrease. Calling CounterFunc again for the same name replaces fn.
// It panics if the name is already taken by a different metric kind.
func (r *Registry) CounterFunc(name string, fn func() int64) *Counter {
	c := r.Counter(name)
	c.fn.Store(&fn)
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
// It panics if the name is already taken by a different metric kind.
func (r *Registry) Gauge(name string) *Gauge {
	v := r.getOrCreate(name, func() expvar.Var { return new(Gauge) })
	g, ok := v.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a gauge", name, v))
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with the
// given bounds if needed (bounds are ignored for an existing histogram).
// It panics if the name is already taken by a different metric kind.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	v := r.getOrCreate(name, func() expvar.Var { return NewHistogram(bounds) })
	h, ok := v.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a histogram", name, v))
	}
	return h
}

func (r *Registry) getOrCreate(name string, mk func() expvar.Var) expvar.Var {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v := mk()
	r.vars[name] = v
	return v
}

// Do calls fn for every metric in name order.
func (r *Registry) Do(fn func(name string, v expvar.Var)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.vars))
	for name := range r.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	vars := make([]expvar.Var, len(names))
	for i, name := range names {
		vars[i] = r.vars[name]
	}
	r.mu.Unlock()
	for i, name := range names {
		fn(name, vars[i])
	}
}

// Snapshot returns the rendered value of every metric, keyed by name.
func (r *Registry) Snapshot() map[string]string {
	out := make(map[string]string)
	r.Do(func(name string, v expvar.Var) { out[name] = v.String() })
	return out
}

// String implements expvar.Var: one JSON object with a key per metric.
func (r *Registry) String() string {
	var b bytes.Buffer
	b.WriteByte('{')
	first := true
	r.Do(func(name string, v expvar.Var) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%s", name, v.String())
	})
	b.WriteByte('}')
	return b.String()
}

// PublishExpvar publishes the registry as one expvar variable under the
// given name. Publishing the same name twice is a no-op (expvar itself
// panics on duplicates), so call sites don't need once-guards; note that a
// repeat call does NOT swap in the new registry.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r)
}
