package rrserver

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrclient"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

// TestMetricsGolden pins the service's Prometheus /metrics exposition for
// each scheme kind after one fixed, seeded campaign: single reports, three
// batches, one out-of-range report, one estimate query (a collector
// snapshot) and one persisted snapshot. Every metric name and # TYPE line
// is pinned, and so is the exact value of every collector.* series; other
// series (the rrserver.ingest_ns timing histogram, the snapshot size) are
// pinned by name only. Regenerate with -update-golden only after an
// intended change to the exposition.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  rr.Scheme
		query   func(context.Context, *rrclient.Client) error
		outside int // a report one past the report space
	}{
		{
			name:    "dense",
			scheme:  mustWarner(t, 4, 0.7),
			outside: 4,
			query: func(ctx context.Context, c *rrclient.Client) error {
				_, err := c.Estimate(ctx, 0)
				return err
			},
		},
		{
			name:    "sketch",
			scheme:  mustCMS(t, 50, 2, 8, 2, 3),
			outside: 16,
			query: func(ctx context.Context, c *rrclient.Client) error {
				_, err := c.EstimateCategories(ctx, []int{0, 1, 2})
				return err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, _, base := startService(t, Config{
				Scheme:       tc.scheme,
				Registry:     reg,
				SnapshotPath: filepath.Join(t.TempDir(), "snapshot.json"),
			})
			ctx := context.Background()
			client := rrclient.New(base, rrclient.WithSeed(5))
			values := randx.New(11)
			domain := tc.scheme.Domain()
			for i := 0; i < 7; i++ {
				if _, err := client.ReportValue(ctx, values.Intn(domain)); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range []int{10, 100, 1000} {
				batch := make([]int, size)
				for i := range batch {
					batch[i] = values.Intn(domain)
				}
				if _, err := client.ReportValues(ctx, batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Report(ctx, tc.outside); err == nil {
				t.Fatalf("report %d outside the report space was accepted", tc.outside)
			}
			if err := tc.query(ctx, client); err != nil {
				t.Fatal(err)
			}
			if err := srv.SnapshotNow(); err != nil {
				t.Fatal(err)
			}

			resp, err := http.Get(base + "/metrics?format=prometheus")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := maskNonCollectorValues(t, body)
			path := filepath.Join("testdata", "metrics_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/rrserver -run TestMetricsGolden -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("/metrics differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// maskNonCollectorValues keeps every line of a Prometheus exposition but
// replaces the value of each sample outside the collector_ namespace with
// "_", so timings and sizes are compared by series name only.
func maskNonCollectorValues(t *testing.T, exposition []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "collector_") {
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			line = line[:cut] + " _"
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
