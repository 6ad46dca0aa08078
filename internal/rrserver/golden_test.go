package rrserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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

// TestServerHeavyHittersReportsMatchScan: a /v1/heavyhitters response's
// reports is the count its hits were estimated from, even while a writer
// posts batches. Under Warner(n, 1) the disguise is the identity, so every
// estimate is an exact count ratio: the fixed categories 1 and 2 must read
// as exactly 1000 and 500 reports out of the response's count, and category
// 0, which the writer keeps growing, as all the rest.
func TestServerHeavyHittersReportsMatchScan(t *testing.T) {
	srv, _, base := startService(t, Config{Scheme: mustWarner(t, 200, 1)})
	fixed := map[int]int{1: 1000, 2: 500}
	for cat, n := range fixed {
		batch := make([]int, n)
		for i := range batch {
			batch[i] = cat
		}
		if err := srv.Collector().IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(rrapi.BatchRequest{Reports: make([]int, 100)}) // all category 0
	if err != nil {
		t.Fatal(err)
	}
	// A transport of the test's own, so no dialed-but-unused connection
	// holds up the server's graceful shutdown.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			resp, err := client.Post(base+"/v1/reports", "application/json", bytes.NewReader(body))
			if err != nil {
				writerDone <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				writerDone <- fmt.Errorf("ingest: HTTP %d", resp.StatusCode)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-writerDone; err != nil {
			t.Fatal(err)
		}
	}()
	for scan := 0; scan < 100; scan++ {
		resp, err := client.Get(base + "/v1/heavyhitters?threshold=1e-9")
		if err != nil {
			t.Fatal(err)
		}
		var out rrapi.HeavyHittersResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(out.Hits) < 2 || len(out.Hits) > 3 {
			t.Fatalf("scan %d: HTTP %d with hits %v", scan, resp.StatusCode, out.Hits)
		}
		for _, h := range out.Hits {
			want, ok := fixed[h.Category]
			if h.Category == 0 {
				want, ok = out.Reports-1500, true
			}
			if !ok {
				t.Fatalf("scan %d: category %d never reported, in hits %v", scan, h.Category, out.Hits)
			}
			if got := h.Estimate * float64(out.Reports); math.Abs(got-float64(want)) > 1e-9*float64(out.Reports) {
				t.Fatalf("scan %d: category %d estimates %.1f of the response's %d reports, want %d",
					scan, h.Category, got, out.Reports, want)
			}
		}
	}
}
