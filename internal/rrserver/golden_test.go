package rrserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"optrr/internal/rrapi"
)

// TestServerDenseHeavyHitters pins the dense /v1/heavyhitters response:
// hits rank the simplex-clipped reconstruction, descending with ties broken
// by category index, ?limit= truncates, and the response echoes the report
// count and threshold. The crafted counts invert (Warner, p = 0.6) to raw
// estimates 0.5, 0.5, 0.2, −0.1, −0.1: categories 0 and 1 tie exactly after
// clipping, and categories 3 and 4 clip to an exact tie at zero.
func TestServerDenseHeavyHitters(t *testing.T) {
	_, _, base := startService(t, Config{Scheme: mustWarner(t, 5, 0.6)})
	var reports []int
	for k, n := range []int{350, 350, 200, 50, 50} {
		for i := 0; i < n; i++ {
			reports = append(reports, k)
		}
	}
	body, err := json.Marshal(rrapi.BatchRequest{Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/reports", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}

	query := func(q string) rrapi.HeavyHittersResponse {
		t.Helper()
		resp, err := http.Get(base + "/v1/heavyhitters?" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", q, resp.StatusCode)
		}
		var out rrapi.HeavyHittersResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := []rrapi.HeavyHitter{
		{Category: 0, Estimate: 0.4166666666666667},
		{Category: 1, Estimate: 0.4166666666666667},
		{Category: 2, Estimate: 0.16666666666666663},
		{Category: 3, Estimate: 0},
		{Category: 4, Estimate: 0},
	}
	check := func(q string, got rrapi.HeavyHittersResponse, threshold float64, want []rrapi.HeavyHitter) {
		t.Helper()
		if got.Reports != 1000 || got.Threshold != threshold {
			t.Fatalf("%s: reports %d threshold %v, want 1000 and %v", q, got.Reports, got.Threshold, threshold)
		}
		if len(got.Hits) != len(want) {
			t.Fatalf("%s: hits %v, want %v", q, got.Hits, want)
		}
		for i := range want {
			if got.Hits[i] != want[i] {
				t.Fatalf("%s: hit %d = %+v, want %+v (bit for bit)", q, i, got.Hits[i], want[i])
			}
		}
	}
	check("threshold=0", query("threshold=0"), 0, want)
	check("threshold=0&limit=4", query("threshold=0&limit=4"), 0, want[:4])
	check("threshold=0.2", query("threshold=0.2"), 0.2, want[:2])
}
