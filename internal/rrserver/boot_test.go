package rrserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optrr/internal/collector"
	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrapi"
	"optrr/internal/rrclient"
)

// TestSchemeBodyAndSnapshotBytes: the /v1/scheme body New encodes once and
// the SnapshotNow file are byte for byte what the server wrote when it
// encoded them per request and per snapshot — json.NewEncoder(w).Encode of
// the SchemeResponse, and json.Marshal of the collector composed from the
// envelope as a json.RawMessage — for dense and sketch deployments whose
// envelopes keep their pinned fingerprints.
func TestSchemeBodyAndSnapshotBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  rr.Scheme
		version string
	}{
		{"dense", mustWarner(t, 10, 0.75), "f0cb2026d9c612ba"},
		{"sketch", mustCMS(t, 100000, 16, 256, 5, 7), "bb26ee72a23d84cd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			srv, _, base := startService(t, Config{Scheme: tc.scheme, Z: 3.29, SnapshotPath: path})
			if srv.SchemeVersion() != tc.version {
				t.Fatalf("scheme version %s, want %s", srv.SchemeVersion(), tc.version)
			}
			env, err := rr.MarshalScheme(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			dense, _ := tc.scheme.(*rr.Matrix)
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(rrapi.SchemeResponse{
				Kind: tc.scheme.Kind(), Scheme: env, Version: tc.version, Matrix: dense, Z: 3.29,
			}); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(base + "/v1/scheme")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("/v1/scheme body differs from the encoder's:\n got %.200s\nwant %.200s", body, want.Bytes())
			}

			reports := make([]int, 3000)
			rng := randx.New(2)
			for i := range reports {
				reports[i] = rng.Intn(tc.scheme.ReportSpace())
			}
			if err := srv.Collector().IngestBatch(reports); err != nil {
				t.Fatal(err)
			}
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			counts, total := srv.Collector().Counts(), len(reports)
			inner, err := json.Marshal(struct {
				Scheme json.RawMessage `json:"scheme,omitempty"`
				Counts []int           `json:"counts"`
				Total  *int            `json:"total,omitempty"`
			}{env, counts, &total})
			if err != nil {
				t.Fatal(err)
			}
			wantFile, err := json.Marshal(json.RawMessage(inner))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, wantFile) {
				t.Fatalf("snapshot file differs from the nested composition:\n got %.200s\nwant %.200s", file, wantFile)
			}
		})
	}
}

// BenchmarkServerBootSketch times a sketch deployment's boot at the
// collect-sketch-mixed shape (domain 100 000, k = 16, m = 256, ε = 5), one
// boot per iteration: New restoring a 200 000-report snapshot, the first
// SDK Disguise (GET /v1/scheme, decode, sampler build) and one SnapshotNow.
// The three steps are reported as restore-ms, fetch-ms and snapshot-ms per
// boot; ns/op also covers the listener start and shutdown.
func BenchmarkServerBootSketch(b *testing.B) {
	scheme := mustCMS(b, 100000, 16, 256, 5, 7)
	values, _ := zipfValues(b, 100000, 200000, 1)
	reports := make([]int, len(values))
	if err := scheme.DisguiseBatchInto(reports, values, 2, 1); err != nil {
		b.Fatal(err)
	}
	col := collector.New(scheme, 1)
	if err := col.IngestBatch(reports); err != nil {
		b.Fatal(err)
	}
	snap, err := col.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "state.json")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		b.Fatal(err)
	}
	cfg := Config{Scheme: scheme, SnapshotPath: path, Logf: func(string, ...any) {}}
	ctx := context.Background()

	var restore, fetch, persist time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if !srv.Restored() || srv.Count() != len(reports) {
			b.Fatalf("boot restored=%v with %d reports, want %d", srv.Restored(), srv.Count(), len(reports))
		}
		httpSrv, err := obs.ServeMux("127.0.0.1:0", nil, srv.Register)
		if err != nil {
			b.Fatal(err)
		}
		client := rrclient.New("http://"+httpSrv.Addr(), rrclient.WithSeed(uint64(i)))
		t2 := time.Now()
		if _, err := client.Disguise(ctx, 0); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if err := srv.SnapshotNow(); err != nil {
			b.Fatal(err)
		}
		persist += time.Since(t3)
		restore += t1.Sub(t0)
		fetch += t3.Sub(t2)
		if err := httpSrv.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perBoot := float64(b.N) * float64(time.Millisecond)
	b.ReportMetric(float64(restore)/perBoot, "restore-ms")
	b.ReportMetric(float64(fetch)/perBoot, "fetch-ms")
	b.ReportMetric(float64(persist)/perBoot, "snapshot-ms")
}
