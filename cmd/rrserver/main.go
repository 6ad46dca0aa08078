// Command rrserver is the LDP collection service: the server half of the
// paper's Section I deployment. Respondents disguise locally (see the
// rrclient SDK) and POST only disguised category indices; rrserver
// aggregates them in a sharded collector and serves the debiased frequency
// estimate with per-category confidence half-widths.
//
//	rrserver -addr :8433 -categories 10 -warner 0.75 -snapshot state.json
//
// Large domains deploy the count-mean-sketch scheme instead of a dense
// matrix: -sketch-domain switches modes, hashing each value into a small
// k×m report grid so server memory and the wire format stay O(k·m) no
// matter how many categories exist:
//
//	rrserver -sketch-domain 1000000 -hash-functions 16 -hash-range 256 -epsilon 4
//
// Endpoints: POST /v1/report and /v1/reports (single/batch ingest),
// GET /v1/estimate (?z=, ?margin= dense; ?categories= sketch),
// GET /v1/scheme (ETagged with the scheme version), GET /v1/heavyhitters
// (?threshold=, ?limit=), plus the obs debug surface on the same listener:
// /metrics (JSON or Prometheus), /healthz, /debug/vars, /debug/pprof/.
//
// The collection state is persisted to -snapshot every -snapshot-every and
// restored at boot; a corrupt or scheme-mismatched snapshot is rejected with
// a logged warning and collection starts fresh. SIGINT/SIGTERM drain
// gracefully: the listener closes, in-flight ingests finish (5s grace), and
// a final snapshot is written so a rolling restart loses zero reports.
//
// -loadtest N switches to the load driver: an in-process server is stood up
// on a loopback port and N reports are pushed through the full HTTP batch
// path, printing throughput and p50/p90/p99 ingest latency. Inspect traces
// with cmd/rrtrace.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optrr/internal/obs"
	"optrr/internal/rr"
	"optrr/internal/rrserver"
	"optrr/internal/sketch"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8433", "listen address (host:port)")
		categories    = flag.Int("categories", 10, "category domain size for the default Warner scheme")
		warnerP       = flag.Float64("warner", 0.75, "Warner diagonal p for the default scheme")
		matrixPath    = flag.String("matrix", "", "JSON disguise-matrix file (e.g. from cmd/optrr); overrides -categories/-warner")
		sketchDomain  = flag.Int("sketch-domain", 0, "deploy a count-mean-sketch scheme over this many categories (0 = dense mode)")
		hashFuncs     = flag.Int("hash-functions", 16, "sketch hash functions k (with -sketch-domain)")
		hashRange     = flag.Int("hash-range", 256, "sketch hash range m: values hash into m cells before disguising (with -sketch-domain)")
		epsilon       = flag.Float64("epsilon", 4, "sketch inner k-RR privacy budget ε (with -sketch-domain)")
		hashSeed      = flag.Uint64("hash-seed", 1, "sketch hash-family seed; clients and server must agree (with -sketch-domain)")
		shards        = flag.Int("shards", 0, "collector shards (0 = GOMAXPROCS)")
		z             = flag.Float64("z", rrserver.DefaultZ, "confidence quantile for /v1/estimate")
		snapshotPath  = flag.String("snapshot", "", "persist collection state to this file and restore it at boot")
		snapshotEvery = flag.Duration("snapshot-every", 30*time.Second, "snapshot persistence period")
		maxBatch      = flag.Int("max-batch", rrserver.DefaultMaxBatch, "largest accepted /v1/reports batch")
		tracePath     = flag.String("trace", "", "write a JSONL run trace to this path")
		loadtest      = flag.Int("loadtest", 0, "run the load driver with this many reports instead of serving")
		loadBatch     = flag.Int("loadtest-batch", 1000, "reports per batch in -loadtest")
		loadWorkers   = flag.Int("loadtest-workers", 4, "concurrent reporting clients in -loadtest")
		seed          = flag.Uint64("seed", 1, "load-driver seed (values and disguise draws)")
	)
	flag.Parse()

	f := flags{
		addr: *addr, categories: *categories, warnerP: *warnerP,
		matrixPath: *matrixPath, sketchDomain: *sketchDomain,
		hashFuncs: *hashFuncs, hashRange: *hashRange,
		epsilon: *epsilon, hashSeed: *hashSeed,
		shards: *shards, z: *z,
		snapshotPath: *snapshotPath, snapshotEvery: *snapshotEvery,
		maxBatch: *maxBatch, tracePath: *tracePath,
		loadtest: *loadtest, loadBatch: *loadBatch, loadWorkers: *loadWorkers,
		seed: *seed,
	}
	if err := validateFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type flags struct {
	addr          string
	categories    int
	warnerP       float64
	matrixPath    string
	sketchDomain  int
	hashFuncs     int
	hashRange     int
	epsilon       float64
	hashSeed      uint64
	shards        int
	z             float64
	snapshotPath  string
	snapshotEvery time.Duration
	maxBatch      int
	tracePath     string
	loadtest      int
	loadBatch     int
	loadWorkers   int
	seed          uint64
}

func run(f flags) error {
	if err := validateFlags(f); err != nil {
		return err
	}
	scheme, err := loadScheme(f)
	if err != nil {
		return err
	}

	telem, err := obs.OpenCLI(f.tracePath, "", "rrserver")
	if err != nil {
		return err
	}
	defer telem.Close()
	telem.Registry.PublishExpvar("rrserver")

	srv, err := rrserver.New(rrserver.Config{
		Scheme:        scheme,
		Shards:        f.shards,
		Z:             f.z,
		SnapshotPath:  f.snapshotPath,
		SnapshotEvery: f.snapshotEvery,
		MaxBatch:      f.maxBatch,
		Recorder:      telem.Recorder,
		Registry:      telem.Registry,
		Logf:          log.Printf,
	})
	if err != nil {
		return err
	}

	if f.loadtest > 0 {
		return runLoadtest(srv, f)
	}

	httpSrv, err := obs.ServeMux(f.addr, telem.Registry, srv.Register)
	if err != nil {
		return err
	}
	log.Printf("rrserver: serving %d categories (%s scheme %s) on http://%s (restored=%v, reports=%d)",
		srv.Categories(), scheme.Kind(), srv.SchemeVersion(), httpSrv.Addr(), srv.Restored(), srv.Count())

	// Graceful drain: the signal closes the listener and waits for in-flight
	// ingests (5s grace) BEFORE the snapshot loop is cancelled, so the final
	// snapshot includes every drained report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	snapCtx, snapCancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(snapCtx) }()

	<-ctx.Done()
	stop()
	log.Printf("rrserver: shutting down, draining in-flight requests")
	if err := httpSrv.Close(); err != nil {
		log.Printf("rrserver: http shutdown: %v", err)
	}
	snapCancel()
	if err := <-runDone; err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	log.Printf("rrserver: stopped with %d reports persisted", srv.Count())
	return nil
}

// validateFlags fails fast on values the server or collector would only
// reject mid-flight.
func validateFlags(f flags) error {
	if f.sketchDomain > 0 {
		if f.matrixPath != "" {
			return fmt.Errorf("-sketch-domain and -matrix are mutually exclusive")
		}
		if f.hashFuncs < 1 {
			return fmt.Errorf("-hash-functions must be at least 1, got %d", f.hashFuncs)
		}
		if f.hashRange < 2 {
			return fmt.Errorf("-hash-range must be at least 2, got %d", f.hashRange)
		}
		if !(f.epsilon > 0) {
			return fmt.Errorf("-epsilon must be positive, got %v", f.epsilon)
		}
	} else if f.matrixPath == "" {
		if f.categories < 2 {
			return fmt.Errorf("-categories must be at least 2, got %d", f.categories)
		}
		if f.warnerP < 0 || f.warnerP > 1 {
			return fmt.Errorf("-warner must be in [0, 1], got %v", f.warnerP)
		}
	}
	if !(f.z > 0) || math.IsInf(f.z, 1) {
		return fmt.Errorf("-z must be a positive finite number, got %v", f.z)
	}
	if f.maxBatch <= 0 {
		return fmt.Errorf("-max-batch must be positive, got %d", f.maxBatch)
	}
	if f.loadtest > 0 {
		if f.loadBatch <= 0 {
			return fmt.Errorf("-loadtest-batch must be positive, got %d", f.loadBatch)
		}
		if f.loadWorkers <= 0 {
			return fmt.Errorf("-loadtest-workers must be positive, got %d", f.loadWorkers)
		}
	}
	return nil
}

// loadScheme builds the deployed scheme: a count-mean sketch when
// -sketch-domain is set, a JSON matrix file when given (validated on
// decode), else the Warner default.
func loadScheme(f flags) (rr.Scheme, error) {
	if f.sketchDomain > 0 {
		return sketch.NewKRR(f.sketchDomain, f.hashFuncs, f.hashRange, f.epsilon, f.hashSeed)
	}
	if f.matrixPath == "" {
		return rr.Warner(f.categories, f.warnerP)
	}
	data, err := os.ReadFile(f.matrixPath)
	if err != nil {
		return nil, err
	}
	m := new(rr.Matrix)
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("%s: %w", f.matrixPath, err)
	}
	if !m.Invertible() {
		return nil, fmt.Errorf("%s: matrix is singular; estimates would be undefined", f.matrixPath)
	}
	return m, nil
}

// runLoadtest stands the service up on a loopback port and pushes
// f.loadtest reports through the real HTTP batch-ingest path, reporting
// throughput and ingest-latency quantiles (the numbers the pinned bench
// harness tracks via BenchmarkServerIngest).
func runLoadtest(srv *rrserver.Server, f flags) error {
	httpSrv, err := obs.ServeMux("127.0.0.1:0", nil, srv.Register)
	if err != nil {
		return err
	}
	defer httpSrv.Close()

	res, err := rrserver.LoadTest(context.Background(), rrserver.LoadConfig{
		BaseURL:    "http://" + httpSrv.Addr(),
		Categories: srv.Categories(),
		Reports:    f.loadtest,
		Batch:      f.loadBatch,
		Workers:    f.loadWorkers,
		Seed:       f.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("reports\t%d\nbatches\t%d\nseconds\t%.3f\nreports/sec\t%.0f\np50_ms\t%.3f\np90_ms\t%.3f\np99_ms\t%.3f\n",
		res.Reports, res.Batches, res.Seconds, res.Throughput,
		res.P50ms, res.P90ms, res.P99ms)
	if err := srv.SnapshotNow(); err != nil {
		return err
	}
	// The margin line quotes the worst full-domain half-width, which only a
	// dense matrix has cheaply; a sketch answers point queries.
	if _, dense := srv.Scheme().(*rr.Matrix); dense {
		margin, err := srv.Collector().MarginOfError(srv.Z())
		if err != nil {
			return err
		}
		fmt.Printf("margin\t%.6f\n", margin)
	}
	return nil
}
