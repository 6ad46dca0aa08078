package rrserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrclient"
)

func mustWarner(t testing.TB, n int, p float64) *rr.Matrix {
	t.Helper()
	m, err := rr.Warner(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startService stands the full HTTP stack up on a loopback port: the
// collection API mounted beside the obs debug endpoints, exactly as
// cmd/rrserver wires it.
func startService(t testing.TB, cfg Config) (*Server, *obs.Server, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	httpSrv, err := obs.ServeMux("127.0.0.1:0", cfg.Registry, srv.Register)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { httpSrv.Close() })
	return srv, httpSrv, "http://" + httpSrv.Addr()
}

// TestServerEndToEnd is the paper's whole pipeline over real HTTP: SDK
// clients draw private values from a known prior, disguise them locally
// through the fetched scheme, and report only the disguise; the server's
// /v1/estimate then recovers the prior within its own stated per-category
// confidence half-widths.
func TestServerEndToEnd(t *testing.T) {
	m := mustWarner(t, 5, 0.75)
	reg := obs.NewRegistry()
	// z = 3.29 (~99.9% per category) so the joint five-category coverage
	// check holds with headroom; the default 1.96 leaves ~23% odds that
	// some category strays outside its own interval.
	const z = 3.29
	srv, _, base := startService(t, Config{Scheme: m, Registry: reg, Z: z})

	prior := []float64{0.35, 0.25, 0.2, 0.15, 0.05}
	alias, err := randx.NewAlias(prior)
	if err != nil {
		t.Fatal(err)
	}
	values := randx.New(42)
	client := rrclient.New(base, rrclient.WithSeed(43))
	ctx := context.Background()

	// The scheme the client samples through is the deployed matrix.
	scheme, err := client.Scheme(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.Equal(m, 0) {
		t.Fatal("served scheme differs from the deployed matrix")
	}

	const reports = 60000
	batch := make([]int, 0, 2000)
	for i := 0; i < reports; i++ {
		batch = append(batch, alias.Draw(values))
		if len(batch) == cap(batch) {
			if _, err := client.ReportValues(ctx, batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if srv.Collector().Count() != reports {
		t.Fatalf("server holds %d reports, want %d", srv.Collector().Count(), reports)
	}

	est, err := client.Estimate(ctx, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if est.Reports != reports || est.Z != z {
		t.Fatalf("estimate header: reports=%d z=%v", est.Reports, est.Z)
	}
	for k, p := range prior {
		if d := math.Abs(est.Estimate[k] - p); d > est.HalfWidth[k] {
			t.Errorf("category %d: |%.4f - %.4f| = %.4f exceeds half-width %.4f",
				k, est.Estimate[k], p, d, est.HalfWidth[k])
		}
	}
	if est.Margin <= 0 {
		t.Fatalf("margin = %v, want positive", est.Margin)
	}
	if est.ReportsForMargin <= reports {
		t.Fatalf("reports_for_margin = %d for a tighter target, want > %d",
			est.ReportsForMargin, reports)
	}
	// The ingest path fed the latency histogram and collector counters.
	if got := reg.Counter("collector.reports").Value(); got != reports {
		t.Fatalf("collector.reports = %d, want %d", got, reports)
	}
	if reg.Histogram("rrserver.ingest_ns", obs.LogBuckets(1000, 4, 12)).Count() == 0 {
		t.Fatal("ingest latency histogram never observed")
	}
}

// TestServerErrorPaths pins the HTTP status contract: malformed and
// out-of-range reports are 400 with batch atomicity intact, an estimate
// before any ingestion is 409, a bad margin target is 400, and a wrong
// method is 405.
func TestServerErrorPaths(t *testing.T) {
	srv, _, base := startService(t, Config{Scheme: mustWarner(t, 3, 0.8)})

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		var raw json.RawMessage
		json.NewDecoder(resp.Body).Decode(&raw) //nolint:errcheck
		buf.Write(raw)
		return resp.StatusCode, buf.String()
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/v1/estimate"); code != http.StatusConflict {
		t.Fatalf("estimate on empty collector: %d, want 409", code)
	}
	if code, _ := post("/v1/report", `{"report": 7}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range report: %d, want 400", code)
	}
	if code, _ := post("/v1/report", `not json`); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", code)
	}
	// Batch atomicity: a bad report anywhere rejects the whole batch.
	if code, _ := post("/v1/reports", `{"reports": [0, 1, 2, 3]}`); code != http.StatusBadRequest {
		t.Fatalf("batch with out-of-range report: %d, want 400", code)
	}
	if got := srv.Collector().Count(); got != 0 {
		t.Fatalf("rejected batch left %d reports behind", got)
	}
	if code, _ := post("/v1/reports", `{"reports": [0, 1, 2]}`); code != http.StatusOK {
		t.Fatalf("good batch: %d, want 200", code)
	}
	if code := get("/v1/estimate?margin=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative margin: %d, want 400", code)
	}
	if code := get("/v1/estimate?z=bogus"); code != http.StatusBadRequest {
		t.Fatalf("unparseable z: %d, want 400", code)
	}
	if code := get("/v1/report"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on ingest route: %d, want 405", code)
	}
	// Oversized batch is refused before touching the collector.
	srv2, _, base2 := startService(t, Config{Scheme: mustWarner(t, 3, 0.8), MaxBatch: 2})
	resp, err := http.Post(base2+"/v1/reports", "application/json", strings.NewReader(`{"reports": [0, 1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d, want 413", resp.StatusCode)
	}
	if got := srv2.Collector().Count(); got != 0 {
		t.Fatalf("oversized batch left %d reports behind", got)
	}
}

// TestServerSnapshotKillRestore is the crash-recovery acceptance path:
// persist, "kill" the process (drop the server), boot a fresh one on the
// same snapshot file, and verify zero counts were lost — then corrupt the
// file and verify the fresh boot falls back to an empty collector with a
// logged warning instead of serving poisoned estimates.
func TestServerSnapshotKillRestore(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	path := filepath.Join(t.TempDir(), "state.json")

	srv1, err := New(Config{Scheme: m, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	for i := 0; i < 12345; i++ {
		if err := srv1.Collector().Ingest(rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	wantCounts := srv1.Collector().Counts()

	// Boot 2: same snapshot, nothing lost, bit-identical counts.
	srv2, err := New(Config{Scheme: m, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !srv2.Restored() {
		t.Fatal("second boot did not restore from snapshot")
	}
	gotCounts := srv2.Collector().Counts()
	for k := range wantCounts {
		if gotCounts[k] != wantCounts[k] {
			t.Fatalf("restored counts[%d] = %d, want %d", k, gotCounts[k], wantCounts[k])
		}
	}

	// Corrupt file → warning + fresh collector.
	if err := os.WriteFile(path, []byte(`{"matrix": {"categories": 4`), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var warnings []string
	logf := func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	srv3, err := New(Config{Scheme: m, SnapshotPath: path, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if srv3.Restored() || srv3.Collector().Count() != 0 {
		t.Fatal("corrupt snapshot was not abandoned")
	}
	mu.Lock()
	warned := len(warnings) > 0 && strings.Contains(warnings[0], "rejected")
	mu.Unlock()
	if !warned {
		t.Fatalf("no rejection warning logged: %v", warnings)
	}

	// Snapshot taken under a different same-size scheme → fresh, warned.
	other, err := New(Config{Scheme: mustWarner(t, 4, 0.9), SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	other.Collector().Ingest(1) //nolint:errcheck
	if err := other.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	warnings = nil
	srv4, err := New(Config{Scheme: m, SnapshotPath: path, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if srv4.Restored() || srv4.Collector().Count() != 0 {
		t.Fatal("scheme-mismatched snapshot was not abandoned")
	}
	mu.Lock()
	warned = len(warnings) > 0 && strings.Contains(warnings[0], "different disguise matrix")
	mu.Unlock()
	if !warned {
		t.Fatalf("no scheme-mismatch warning logged: %v", warnings)
	}
}

// TestServerDrainThenPersist mirrors cmd/rrserver's shutdown ordering:
// concurrent ingestion, close the HTTP server (drain), then cancel the
// snapshot loop — the final snapshot must hold every accepted report.
func TestServerDrainThenPersist(t *testing.T) {
	m := mustWarner(t, 3, 0.8)
	path := filepath.Join(t.TempDir(), "state.json")
	srv, httpSrv, base := startService(t, Config{
		Scheme: m, SnapshotPath: path, SnapshotEvery: time.Hour,
	})

	snapCtx, snapCancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(snapCtx) }()

	const workers, batches = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := rrclient.New(base, rrclient.WithSeed(uint64(100+w)))
			vals := randx.Stream(7, uint64(w))
			for b := 0; b < batches; b++ {
				batch := make([]int, 50)
				for i := range batch {
					batch[i] = vals.Intn(3)
				}
				if _, err := client.ReportValues(context.Background(), batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	accepted := srv.Collector().Count()
	if accepted != workers*batches*50 {
		t.Fatalf("accepted %d reports, want %d", accepted, workers*batches*50)
	}

	// Shutdown ordering: drain HTTP first, then final snapshot.
	if err := httpSrv.Close(); err != nil {
		t.Fatal(err)
	}
	snapCancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	recovered, err := New(Config{Scheme: m, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Restored() || recovered.Collector().Count() != accepted {
		t.Fatalf("recovered %d reports (restored=%v), want %d",
			recovered.Collector().Count(), recovered.Restored(), accepted)
	}
}

// TestLoadDriverMillionReports is the load acceptance run: a million
// reports through the full HTTP batch-ingest path, then a kill/restore
// cycle that must lose zero counts. -short keeps it out of quick edit
// loops; CI and the default `go test ./...` run it.
func TestLoadDriverMillionReports(t *testing.T) {
	if testing.Short() {
		t.Skip("million-report load driver skipped in -short mode")
	}
	m := mustWarner(t, 10, 0.75)
	path := filepath.Join(t.TempDir(), "state.json")
	srv, httpSrv, base := startService(t, Config{Scheme: m, SnapshotPath: path})

	const reports = 1_000_000
	res, err := LoadTest(context.Background(), LoadConfig{
		BaseURL:    base,
		Categories: 10,
		Reports:    reports,
		Batch:      10_000,
		Workers:    8,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Collector().Count() != reports {
		t.Fatalf("server holds %d reports, want %d", srv.Collector().Count(), reports)
	}
	if res.Batches != reports/10_000 {
		t.Fatalf("drove %d batches, want %d", res.Batches, reports/10_000)
	}
	if res.P99ms <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate load result: %+v", res)
	}
	t.Logf("load: %.0f reports/sec, p50 %.2fms p90 %.2fms p99 %.2fms",
		res.Throughput, res.P50ms, res.P90ms, res.P99ms)

	// Kill/restore: persist, drop everything, boot fresh — zero loss.
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	want := srv.Collector().Counts()
	httpSrv.Close()
	recovered, err := New(Config{Scheme: m, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	got := recovered.Collector().Counts()
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("restored counts[%d] = %d, want %d", k, got[k], want[k])
		}
	}
}

// BenchmarkServerIngest measures the HTTP batch-ingest path end to end
// (SDK disguise + POST /v1/reports + sharded collector landing): ns/op is
// per report, and the p99 per-batch round-trip latency is reported as
// p99-batch-ns for the pinned bench harness.
func BenchmarkServerIngest(b *testing.B) {
	m := mustWarner(b, 10, 0.75)
	_, _, base := startService(b, Config{Scheme: m})
	client := rrclient.New(base, rrclient.WithSeed(3))
	values := randx.New(4)
	ctx := context.Background()

	const batchSize = 1000
	batch := make([]int, batchSize)
	var lats []float64
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batchSize {
		size := batchSize
		if rem := b.N - done; rem < size {
			size = rem
		}
		for i := 0; i < size; i++ {
			batch[i] = values.Intn(10)
		}
		t0 := time.Now()
		if _, err := client.ReportValues(ctx, batch[:size]); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, float64(time.Since(t0).Nanoseconds()))
	}
	b.StopTimer()
	if len(lats) > 0 {
		sort.Float64s(lats)
		b.ReportMetric(quantileNs(lats, 0.99), "p99-batch-ns")
	}
}

// TestServerRejectsOversizedBody: ingest bodies are capped before decoding
// (MaxBatch reports at the report space's digit width, plus a comma and a
// space each, plus the envelope slack), and a body over the cap is 413 with
// nothing ingested.
func TestServerRejectsOversizedBody(t *testing.T) {
	srv, _, base := startService(t, Config{Scheme: mustWarner(t, 3, 0.8), MaxBatch: 4})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	padding := strings.Repeat(" ", bodySlack+4*3+1)
	if code := post("/v1/reports", `{"reports": [0, 1`+padding+`]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: HTTP %d, want 413", code)
	}
	if code := post("/v1/report", `{"report": 1`+padding+`}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized report body: HTTP %d, want 413", code)
	}
	if got := srv.Collector().Count(); got != 0 {
		t.Fatalf("oversized bodies left %d reports behind", got)
	}
	// A full MaxBatch batch in a client's ", "-separated encoding fits.
	if code := post("/v1/reports", `{"reports": [2, 2, 2, 2]}`); code != http.StatusOK {
		t.Fatalf("full batch: HTTP %d, want 200", code)
	}
	if got := srv.Collector().Count(); got != 4 {
		t.Fatalf("count = %d after a full batch, want 4", got)
	}
}

// TestServerBatchBodyGrammar: POST /v1/reports takes the rrapi.DecodeBatch
// grammar, whitespace included. Each body class it refuses although
// encoding/json would read it is a 400 with nothing landed, as are a
// non-integer and a negative report (which decodes, then fails the
// collector's range check).
func TestServerBatchBodyGrammar(t *testing.T) {
	srv, _, base := startService(t, Config{Scheme: mustWarner(t, 3, 0.8)})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/reports", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		``,
		`{}`,
		`{"reports":null}`,
		`{"reports":[1],"extra":0}`,
		`{"Reports":[1]}`,
		`{"report\u0073":[1]}`,
		`{"reports":[1],"reports":[2]}`,
		`{"reports":[1]} {}`,
		`{"reports":[1.0]}`,
		`{"reports":[0,-1]}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", body, code)
		}
	}
	if got := srv.Collector().Count(); got != 0 {
		t.Fatalf("refused bodies left %d reports behind", got)
	}
	if code := post(" {\n\t\"reports\" : [ 0 ,1,\r\n2 ] }\n"); code != http.StatusOK {
		t.Fatalf("whitespace-laden batch: HTTP %d, want 200", code)
	}
	if got := srv.Collector().Count(); got != 3 {
		t.Fatalf("count = %d after a 3-report batch, want 3", got)
	}
}

// TestServerKeepsRejectedSnapshot: a boot that rejects its snapshot —
// corrupt, collected under another scheme, or carrying the deployed
// envelope with a total its counts do not sum to — moves the file aside to
// <path>.rejected before starting fresh, so the next persist cannot
// overwrite the only copy of that campaign.
func TestServerKeepsRejectedSnapshot(t *testing.T) {
	m := mustWarner(t, 4, 0.7)
	other, err := New(Config{Scheme: mustWarner(t, 4, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Collector().IngestBatch([]int{0, 1, 2, 3, 3}); err != nil {
		t.Fatal(err)
	}
	mismatched, err := json.Marshal(other.Collector())
	if err != nil {
		t.Fatal(err)
	}
	own, err := New(Config{Scheme: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := own.Collector().IngestBatch([]int{0, 1, 2, 3, 3}); err != nil {
		t.Fatal(err)
	}
	ownSnap, err := own.Collector().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"corrupt":          []byte(`{"scheme": {"kind": "dense"`),
		"different scheme": mismatched,
		"corrupt total":    []byte(strings.Replace(string(ownSnap), `"total":5`, `"total":6`, 1)),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var warnings []string
			srv, err := New(Config{Scheme: m, SnapshotPath: path, Logf: func(format string, args ...any) {
				warnings = append(warnings, fmt.Sprintf(format, args...))
			}})
			if err != nil {
				t.Fatal(err)
			}
			if srv.Restored() || srv.Count() != 0 {
				t.Fatal("rejected snapshot was adopted")
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], path+".rejected") {
				t.Fatalf("want one warning naming %s.rejected, got %q", path, warnings)
			}
			if err := srv.Collector().Ingest(1); err != nil {
				t.Fatal(err)
			}
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			kept, err := os.ReadFile(path + ".rejected")
			if err != nil {
				t.Fatal(err)
			}
			if string(kept) != string(data) {
				t.Fatalf("rejected snapshot not kept intact: %q", kept)
			}
		})
	}
}

// TestServerRestoresLegacyDenseSnapshot: a dense snapshot written before
// the scheme envelope ({"matrix": …, "counts": …}, with or without a
// total) still restores onto the same deployed matrix.
func TestServerRestoresLegacyDenseSnapshot(t *testing.T) {
	m := mustWarner(t, 3, 0.8)
	matrixJSON, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{"with total": `,"total":10}`, "without total": `}`} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			legacy := `{"matrix":` + string(matrixJSON) + `,"counts":[5,3,2]` + tail
			if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Scheme: m, SnapshotPath: path, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if !srv.Restored() || srv.Count() != 10 {
				t.Fatalf("legacy snapshot: restored=%v count=%d, want true/10", srv.Restored(), srv.Count())
			}
		})
	}
}

// TestServerDensePointEstimate: ?categories= selects point estimates from
// a dense deployment too, echoing the categories it answers for.
func TestServerDensePointEstimate(t *testing.T) {
	srv, _, base := startService(t, Config{Scheme: mustWarner(t, 4, 0.7)})
	rng := randx.New(3)
	for i := 0; i < 4000; i++ {
		if err := srv.Collector().Ingest(rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	client := rrclient.New(base)
	ctx := context.Background()
	full, err := client.Estimate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	point, err := client.EstimateCategories(ctx, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(point.Categories) != 2 || point.Categories[0] != 3 || point.Categories[1] != 1 {
		t.Fatalf("categories echo = %v, want [3 1]", point.Categories)
	}
	for i, k := range []int{3, 1} {
		if point.Estimate[i] != full.Estimate[k] || point.HalfWidth[i] != full.HalfWidth[k] {
			t.Fatalf("category %d: point %v ± %v, full %v ± %v",
				k, point.Estimate[i], point.HalfWidth[i], full.Estimate[k], full.HalfWidth[k])
		}
	}
}
