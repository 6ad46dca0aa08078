package rrserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrclient"
	"optrr/internal/sketch"
)

func mustCMS(t testing.TB, domain, hashes, hashRange int, eps float64, seed uint64) *sketch.CMSScheme {
	t.Helper()
	s, err := sketch.NewKRR(domain, hashes, hashRange, eps, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// zipfValues draws total records from a Zipf(1) distribution over the domain
// and returns them with their empirical frequencies.
func zipfValues(t testing.TB, domain, total int, seed uint64) ([]int, []float64) {
	t.Helper()
	cdf := make([]float64, domain)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	rng := randx.New(seed)
	values := make([]int, total)
	freqs := make([]float64, domain)
	for i := range values {
		u := rng.Float64() * sum
		values[i] = sort.SearchFloat64s(cdf, u)
		freqs[values[i]] += 1 / float64(total)
	}
	return values, freqs
}

// TestServerSketchEndToEnd is the large-domain pipeline over real HTTP:
// Zipf-distributed private values over a 100000-category domain — far past
// any dense matrix — disguised locally by the SDK through the fetched sketch
// scheme, reported in batches, and the heavy hitters recovered by the
// server's point queries and heavy-hitter scan. The point estimates must
// land within the server's own stated distribution-free half-widths (the
// Pastore-style collision + sampling bound), and the collection state must
// stay O(k·m) as reports accumulate.
func TestServerSketchEndToEnd(t *testing.T) {
	const (
		domain = 100000
		n      = 120000
		z      = 3.29
	)
	scheme := mustCMS(t, domain, 16, 256, 5, 2026)
	srv, _, base := startService(t, Config{Scheme: scheme, Z: z})

	client := rrclient.New(base, rrclient.WithSeed(7))
	ctx := context.Background()

	// The SDK must refuse to hand out a dense matrix for a sketch deployment
	// but serve the scheme-generic form, same fingerprint as the server's.
	if _, err := client.Scheme(ctx); err == nil || !strings.Contains(err.Error(), "not a dense matrix") {
		t.Fatalf("Scheme() on a sketch deployment: err = %v", err)
	}
	deployed, err := client.DeployedScheme(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if deployed.Kind() != "cms" || deployed.Domain() != domain {
		t.Fatalf("deployed scheme kind %q domain %d", deployed.Kind(), deployed.Domain())
	}
	version, err := client.SchemeVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if version != srv.SchemeVersion() {
		t.Fatalf("client version %s, server %s", version, srv.SchemeVersion())
	}

	values, truth := zipfValues(t, domain, n, 11)
	for lo := 0; lo < n; lo += 10000 {
		if _, err := client.ReportValues(ctx, values[lo:lo+10000]); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Count() != n {
		t.Fatalf("server holds %d reports, want %d", srv.Count(), n)
	}

	// Point queries for the six most frequent Zipf categories: each estimate
	// must be inside the server's stated half-width, and close in absolute
	// terms (the ℓ²=1 worst-case bound is loose; the estimator is much
	// better on a real skewed distribution).
	cats := []int{0, 1, 2, 3, 4, 5}
	est, err := client.EstimateCategories(ctx, cats)
	if err != nil {
		t.Fatal(err)
	}
	if est.Reports != n || len(est.Estimate) != len(cats) || len(est.HalfWidth) != len(cats) {
		t.Fatalf("estimate response shape: reports %d, %d estimates, %d half-widths",
			est.Reports, len(est.Estimate), len(est.HalfWidth))
	}
	for i, x := range cats {
		diff := math.Abs(est.Estimate[i] - truth[x])
		if diff > est.HalfWidth[i] {
			t.Errorf("category %d: |%.4f − %.4f| = %.4f exceeds the stated half-width %.4f",
				x, est.Estimate[i], truth[x], diff, est.HalfWidth[i])
		}
		if diff > 0.02 {
			t.Errorf("category %d: estimate %.4f vs truth %.4f", x, est.Estimate[i], truth[x])
		}
	}

	// The heavy-hitter scan over all 100000 categories recovers the Zipf
	// head: the two most frequent categories are present, and nothing
	// outside the true top ten sneaks in.
	hits, err := client.HeavyHitters(ctx, 0.03, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, h := range hits.Hits {
		found[h.Category] = true
		if h.Category >= 10 {
			t.Errorf("false heavy hitter: category %d at %.4f", h.Category, h.Estimate)
		}
	}
	if !found[0] || !found[1] {
		t.Fatalf("Zipf head missing from heavy hitters %v", hits.Hits)
	}

	// O(k·m) state: the snapshot is the k×m count grid plus the scheme,
	// so doubling the report volume must not grow it beyond digit-width
	// jitter — the collection state is independent of n (and of the
	// 100000-category domain).
	data0, err := srv.SketchCollector().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReportValues(ctx, values[:10000]); err != nil {
		t.Fatal(err)
	}
	data1, err := srv.SketchCollector().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if grow := len(data1) - len(data0); grow > 4096 {
		t.Fatalf("snapshot grew %d bytes after 10000 more reports; state must be O(k·m), not O(n)", grow)
	}
}

// TestServerSketchQueryValidation pins the sketch-mode API contract:
// estimates are point queries, margin projection is dense-only, and the
// heavy-hitter endpoint validates its parameters.
func TestServerSketchQueryValidation(t *testing.T) {
	scheme := mustCMS(t, 5000, 8, 64, 4, 1)
	_, _, base := startService(t, Config{Scheme: scheme})
	client := rrclient.New(base, rrclient.WithSeed(1))
	ctx := context.Background()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Empty collector: a valid point query is 409, not 200-with-zeros.
	if got := get("/v1/estimate?categories=1,2"); got != http.StatusConflict {
		t.Errorf("estimate on empty collector: HTTP %d, want 409", got)
	}
	if _, err := client.ReportValues(ctx, []int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"missing categories": "/v1/estimate",
		"margin unsupported": "/v1/estimate?categories=1&margin=0.01",
		"bad category":       "/v1/estimate?categories=nope",
		"category too large": "/v1/estimate?categories=5000",
		"empty list":         "/v1/estimate?categories=,",
		"missing threshold":  "/v1/heavyhitters",
		"bad threshold":      "/v1/heavyhitters?threshold=-1",
		"bad limit":          "/v1/heavyhitters?threshold=0.1&limit=-2",
	}
	for name, path := range cases {
		if got := get(path); got != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, got)
		}
	}
	if got := get("/v1/estimate?categories=1,2,3"); got != http.StatusOK {
		t.Errorf("valid point query: HTTP %d, want 200", got)
	}
	if got := get("/v1/heavyhitters?threshold=0.5"); got != http.StatusOK {
		t.Errorf("valid heavy-hitter scan: HTTP %d, want 200", got)
	}
}

// TestServerSchemeETag: /v1/scheme carries the scheme version as a strong
// ETag, If-None-Match polling gets a 304, and the SDK's SchemeChanged rides
// that without refetching the body.
func TestServerSchemeETag(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dense", Config{Scheme: mustWarner(t, 6, 0.8)}},
		{"sketch", Config{Scheme: mustCMS(t, 1000, 4, 16, 4, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, base := startService(t, tc.cfg)
			resp, err := http.Get(base + "/v1/scheme")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			etag := resp.Header.Get("ETag")
			if want := `"` + srv.SchemeVersion() + `"`; etag != want {
				t.Fatalf("ETag %q, want %q", etag, want)
			}

			req, _ := http.NewRequest(http.MethodGet, base+"/v1/scheme", nil)
			req.Header.Set("If-None-Match", etag)
			resp2, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp2.Body.Close()
			if resp2.StatusCode != http.StatusNotModified {
				t.Fatalf("matching If-None-Match: HTTP %d, want 304", resp2.StatusCode)
			}

			req.Header.Set("If-None-Match", `"stale"`)
			resp3, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp3.Body.Close()
			if resp3.StatusCode != http.StatusOK {
				t.Fatalf("stale If-None-Match: HTTP %d, want 200", resp3.StatusCode)
			}

			client := rrclient.New(base)
			changed, err := client.SchemeChanged(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				t.Fatal("SchemeChanged reported a change against an unchanged deployment")
			}
		})
	}
}

// TestServerSketchSnapshotRestore: a sketch deployment persists its k×m grid
// with the scheme envelope and restores it on reboot. Its own snapshot
// carries the deployed envelope byte for byte and restores onto the
// deployed scheme itself; the same snapshot re-indented restores through
// the decode-and-compare path to the same counts and estimates. A snapshot
// from a different hash family is refused, moved aside, and collection
// starts fresh.
func TestServerSketchSnapshotRestore(t *testing.T) {
	scheme := mustCMS(t, 20000, 8, 64, 4, 5)
	path := filepath.Join(t.TempDir(), "sketch.json")
	srv, _, base := startService(t, Config{Scheme: scheme, SnapshotPath: path})
	client := rrclient.New(base, rrclient.WithSeed(3))
	ctx := context.Background()

	values, _ := zipfValues(t, 20000, 5000, 1)
	if _, err := client.ReportValues(ctx, values); err != nil {
		t.Fatal(err)
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	own, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, own, "", "  "); err != nil {
		t.Fatal(err)
	}
	cats := []int{0, 1, 2, 17, 19999}
	wantEst, err := srv.Collector().Estimate(cats...)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		data []byte
		onto bool // restored onto the deployed scheme, not a decoded copy
	}{
		{"own snapshot", own, true},
		{"re-indented envelope", indented.Bytes(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			reborn, err := New(Config{Scheme: scheme, SnapshotPath: path, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if !reborn.Restored() || reborn.Count() != 5000 {
				t.Fatalf("restored=%v count=%d, want true/5000", reborn.Restored(), reborn.Count())
			}
			if onto := reborn.Collector().Scheme() == rr.Scheme(scheme); onto != tc.onto {
				t.Fatalf("restored onto the deployed scheme: %v, want %v", onto, tc.onto)
			}
			if !slices.Equal(reborn.Collector().Counts(), srv.Collector().Counts()) {
				t.Fatal("restored counts differ from the persisted ones")
			}
			est, err := reborn.Collector().Estimate(cats...)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(est, wantEst) {
				t.Fatalf("restored estimates %v, want %v", est, wantEst)
			}
		})
	}

	// A server deployed with a different hash seed must reject the snapshot:
	// its reports were hashed under another family.
	var warned bool
	logf := func(format string, args ...any) {
		if strings.Contains(format, "different scheme") {
			warned = true
		}
		t.Logf(format, args...)
	}
	other, err := New(Config{Scheme: mustCMS(t, 20000, 8, 64, 4, 6), SnapshotPath: path, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if other.Restored() || other.Count() != 0 {
		t.Fatalf("mismatched scheme adopted the snapshot: restored=%v count=%d", other.Restored(), other.Count())
	}
	if !warned {
		t.Fatal("scheme mismatch was not logged")
	}
	if _, err := os.Stat(path + ".rejected"); err != nil {
		t.Fatalf("mismatched snapshot not moved aside: %v", err)
	}
}
