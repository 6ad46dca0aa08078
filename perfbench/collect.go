package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"optrr/internal/collector"
	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrapi"
	"optrr/internal/rrclient"
	"optrr/internal/rrserver"
	"optrr/internal/sketch"
)

// Collection workloads: an in-process rrserver.Server on a real loopback
// listener, driven from this process by at most two client goroutines over
// at most two connections.
const (
	denseCategories = 10
	denseWarnerP    = 0.75
	// sketch: the shape TestServerSketchEndToEnd and BenchmarkHeavyHitters
	// use.
	sketchDomain  = 100000
	sketchHashes  = 16
	sketchRange   = 256
	sketchEpsilon = 5

	batchSize       = 1000
	poolBatches     = 32
	prePhaseReports = 200000
	// checkZ is the quantile estimates are served at: ~99.9% per category.
	// The checks allow checkSlack times the stated half-width, 4.5σ, so
	// that a correct run fails them with probability below 1e-4 over all
	// its categories; lost or double-counted reports, or a wrong debias,
	// miss by far more.
	checkZ     = 3.29
	checkSlack = 4.5 / checkZ
	// maxConns bounds client goroutines and connections (the box has two
	// cores). Every client has one connection of its own.
	maxConns = 2

	// loadSegments splits a collection run's measured time into this many
	// load phases, each on fresh connections. The batch figures and the
	// median read are medians over segments: how fast a phase runs depends
	// on how its goroutines and connections settle, and one phase that
	// settles badly then moves them little.
	loadSegments = 10

	readInterval    = 40 * time.Millisecond
	heavyHitterEach = 4 // every fourth read is a heavy-hitter scan
	hhThreshold     = 0.03
	hhLimit         = 10
	pointQueries    = 8  // point queries ask for the top Zipf categories
	trackedHead     = 10 // no heavy hitter may come from outside this head
	sampleBatches   = 32 // request bodies kept for the decode replay
)

// deployment is one collection workload's fixed inputs.
type deployment struct {
	scheme   rr.Scheme
	tracked  []int // categories whose true counts the checks compare
	prePhase []int // true counts of the pre-phase reports, per tracked
	pool     [][]valueBatch
}

// writePrePhase disguises the pre-phase values and writes the snapshot the
// service will boot from, so recovery is part of set-up.
func writePrePhase(path string, scheme rr.Scheme, values []int, seed uint64, col interface{ IngestBatch([]int) error }) error {
	disguised := make([]int, len(values))
	if err := scheme.DisguiseBatchInto(disguised, values, randx.StreamSeed(seed, streamPrePhase), 1); err != nil {
		return err
	}
	if err := col.IngestBatch(disguised); err != nil {
		return err
	}
	data, err := json.Marshal(col)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// service is a running collection service plus the transports of its
// clients.
type service struct {
	srv        *rrserver.Server
	http       *obs.Server
	base       string
	transports []*http.Transport
	stopRun    context.CancelFunc
	runDone    chan error
}

// setupTimes splits one set-up into its three steps.
type setupTimes struct {
	restore, listen, fetch time.Duration
}

func (t setupTimes) total() time.Duration { return t.restore + t.listen + t.fetch }

// startService runs the set-up the metric setup_s times: rrserver.New with
// snapshot recovery, the listener coming up, and the first client's scheme
// fetch and sampler build.
func startService(cfg rrserver.Config, timer *routeTimer, clientSeed uint64) (*service, *rrclient.Client, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	srv, err := rrserver.New(cfg)
	if err != nil {
		return nil, nil, st, err
	}
	t1 := time.Now()
	register := srv.Register
	if timer != nil {
		register = func(mux *http.ServeMux) {
			inner := http.NewServeMux()
			srv.Register(inner)
			mux.Handle("/v1/", timer.wrap(inner))
		}
	}
	httpSrv, err := obs.ServeMux("127.0.0.1:0", nil, register)
	if err != nil {
		return nil, nil, st, err
	}
	t2 := time.Now()
	svc := &service{srv: srv, http: httpSrv, base: "http://" + httpSrv.Addr()}
	client := svc.client(clientSeed)
	if _, err := client.Disguise(context.Background(), 0); err != nil {
		svc.close()
		return nil, nil, st, fmt.Errorf("first disguise: %w", err)
	}
	t3 := time.Now()
	return svc, client, setupTimes{restore: t1.Sub(t0), listen: t2.Sub(t1), fetch: t3.Sub(t2)}, nil
}

// client is one respondent: an SDK client on a connection of its own, as
// two independent respondents would be. (Sharing one pool lets the clients
// trade connections, and how that settles made throughput differ by a third
// between otherwise equal runs.)
func (s *service) client(seed uint64) *rrclient.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.transports = append(s.transports, t)
	hc := &http.Client{Transport: t, Timeout: 30 * time.Second}
	return rrclient.New(s.base, rrclient.WithHTTPClient(hc), rrclient.WithSeed(seed))
}

// closeIdle closes every client's idle connection.
func (s *service) closeIdle() {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

// persist starts the periodic snapshot loop.
func (s *service) persist() {
	ctx, cancel := context.WithCancel(context.Background())
	s.stopRun = cancel
	s.runDone = make(chan error, 1)
	go func() { s.runDone <- s.srv.Run(ctx) }()
}

// close drains the listener, then stops the snapshot loop (which writes a
// final snapshot) and waits for it.
func (s *service) close() error {
	err := s.http.Close()
	s.closeIdle()
	if s.stopRun != nil {
		s.stopRun()
		if runErr := <-s.runDone; err == nil {
			err = runErr
		}
	}
	return err
}

// A collection run sets its service up at least minSetupReps times, and
// goes on until setupBudget has passed or maxSetupReps is reached; setup_s
// is the median. A sketch set-up takes a few hundred milliseconds, a dense
// one about a millisecond.
const (
	minSetupReps = 7
	maxSetupReps = 200
	setupBudget  = 3 * time.Second
)

// setupMedians are the medians of the repeated set-ups, in milliseconds.
type setupMedians struct {
	total, restore, fetch float64
}

// bootService repeats the set-up and keeps the last service.
func bootService(cfg rrserver.Config, timer *routeTimer, clientSeed uint64) (*service, *rrclient.Client, setupMedians, error) {
	var total, restore, fetch []float64
	begin := time.Now()
	for i := 0; ; i++ {
		// Each set-up starts on a collected heap, as a process's one boot
		// would; otherwise the garbage of earlier repeats sets peak_rss_mb.
		runtime.GC()
		svc, client, st, err := startService(cfg, timer, clientSeed)
		if err != nil {
			return nil, nil, setupMedians{}, fmt.Errorf("set-up: %w", err)
		}
		total = append(total, ms(st.total()))
		restore = append(restore, ms(st.restore))
		fetch = append(fetch, ms(st.fetch))
		if i+1 >= minSetupReps && (i+1 >= maxSetupReps || time.Since(begin) >= setupBudget) {
			return svc, client, setupMedians{total: median(total), restore: median(restore), fetch: median(fetch)}, nil
		}
		if err := svc.close(); err != nil {
			return nil, nil, setupMedians{}, err
		}
	}
}

// writerStats is one closed-loop writer's view of its run.
type writerStats struct {
	lats    []float64 // batch round trips, ms
	batches int
	failed  int
	acked   int   // acknowledged reports
	counts  []int // acknowledged true values, per tracked category
	lastErr error

	// traced only
	disguise, roundtrip time.Duration
	samples             [][]int // disguised batches kept for replays
}

// writeLoop is a closed-loop writer: it sends its next batch only after the
// previous one is acknowledged, until the deadline, and adds what it saw to
// st. Untraced it calls ReportValues; traced it calls Disguise per value and
// then ReportBatch, timed apart.
func writeLoop(st *writerStats, client *rrclient.Client, pool []valueBatch, deadline time.Time, traced bool) {
	ctx := context.Background()
	disguised := make([]int, batchSize)
	for k := 0; time.Now().Before(deadline); k++ {
		b := pool[k%len(pool)]
		st.batches++
		t0 := time.Now()
		var err error
		if traced {
			for i, v := range b.values {
				if disguised[i], err = client.Disguise(ctx, v); err != nil {
					break
				}
			}
			t1 := time.Now()
			if err == nil {
				err = client.ReportBatch(ctx, disguised)
			}
			st.disguise += t1.Sub(t0)
			st.roundtrip += time.Since(t1)
			if len(st.samples) < sampleBatches {
				st.samples = append(st.samples, append([]int(nil), disguised...))
			}
		} else {
			_, err = client.ReportValues(ctx, b.values)
		}
		done := time.Now()
		if err != nil {
			st.failed++
			st.lastErr = err
			continue
		}
		st.lats = append(st.lats, ms(done.Sub(t0)))
		st.acked += len(b.values)
		for i, c := range b.counts {
			st.counts[i] += c
		}
	}
}

// readStats is the open-loop reader's view of its run.
type readStats struct {
	lats, lags []float64 // ms, from each read's due time
	reads      int
	failed     int
	lastErr    error
}

// readLoop is an open-loop reader on a fixed schedule: read i is due at
// start + i·readInterval whether or not earlier reads have finished, and its
// latency counts from that due time. Every heavyHitterEach-th read is a
// heavy-hitter scan, the rest are point queries. It adds what it saw to st.
func readLoop(st *readStats, client *rrclient.Client, cats []int, start, deadline time.Time) {
	ctx := context.Background()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readInterval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issued := time.Now()
		var err error
		if i%heavyHitterEach == heavyHitterEach-1 {
			_, err = client.HeavyHitters(ctx, hhThreshold, hhLimit)
		} else {
			_, err = client.EstimateCategories(ctx, cats)
		}
		st.reads++
		if err != nil {
			st.failed++
			st.lastErr = err
			continue
		}
		st.lats = append(st.lats, float64(time.Since(due))/float64(time.Millisecond))
		st.lags = append(st.lags, float64(issued.Sub(due))/float64(time.Millisecond))
	}
}

// collection is the shared driver behind both collection workloads.
type collection struct {
	cfg     runConfig
	dep     deployment
	writers int
	reads   bool // run the open-loop reader beside one writer
	// check runs the workload's estimate checks against the final state.
	// It returns the estimates' signal-to-noise ratio: the median over the
	// tracked categories of true frequency over stated half-width.
	check func(out *outcome, svc *service, client *rrclient.Client, truth []float64) float64
	// landing builds a bare collector of the deployed kind.
	landing func() interface {
		IngestBatch([]int) error
		Instrument(obs.Recorder, *obs.Registry)
	}
}

func (c *collection) run() (*outcome, error) {
	cfg := c.cfg
	out := &outcome{metrics: map[string]float64{}}
	snapshot := filepath.Join(cfg.dir, "snapshot.json")
	var timer *routeTimer
	if cfg.trace {
		timer = &routeTimer{routes: map[string]*routeStats{}}
	}
	every := max(cfg.seconds/4, 250*time.Millisecond)
	svc, client, setup, err := bootService(rrserver.Config{
		Scheme:        c.dep.scheme,
		Z:             checkZ,
		SnapshotPath:  snapshot,
		SnapshotEvery: every,
		Logf:          func(string, ...any) {},
	}, timer, randx.StreamSeed(cfg.seed, streamDisguise))
	if err != nil {
		return nil, err
	}
	restored := svc.srv.Count()
	out.checkf(svc.srv.Restored() && restored == prePhaseReports,
		"service restored %d reports (restored=%v), the pre-phase wrote %d", restored, svc.srv.Restored(), prePhaseReports)
	svc.persist()
	defer svc.close()

	clients := []*rrclient.Client{client}
	for w := 1; w < c.writers; w++ {
		clients = append(clients, svc.client(randx.StreamSeed(cfg.seed, streamDisguise+uint64(8*w))))
	}
	var reader *rrclient.Client
	if c.reads {
		reader = svc.client(0)
	}
	if timer != nil {
		timer.reset()
	}
	writers := make([]*writerStats, c.writers)
	for w := range writers {
		writers[w] = &writerStats{counts: make([]int, len(c.dep.tracked))}
	}
	reads := &readStats{}
	var segMean, segP50, segP99, segRate, segRead []float64
	segment := cfg.seconds / loadSegments
	for s := 0; s < loadSegments; s++ {
		svc.closeIdle()
		seen := make([]int, len(writers))
		seenReads := len(reads.lats)
		ackedBefore := 0
		for w, st := range writers {
			seen[w] = len(st.lats)
			ackedBefore += st.acked
		}
		start := time.Now()
		deadline := start.Add(segment)
		var wg sync.WaitGroup
		for w, st := range writers {
			wg.Add(1)
			go func(w int, st *writerStats) {
				defer wg.Done()
				writeLoop(st, clients[w], c.dep.pool[w], deadline, cfg.trace)
			}(w, st)
		}
		if c.reads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				readLoop(reads, reader, c.dep.tracked[:pointQueries], start, deadline)
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		var lats []float64
		acked := -ackedBefore
		for w, st := range writers {
			lats = append(lats, st.lats[seen[w]:]...)
			acked += st.acked
		}
		if len(lats) > 0 {
			lats = sortedCopy(lats)
			segMean = append(segMean, mean(lats))
			segP50 = append(segP50, percentile(lats, 0.5))
			segP99 = append(segP99, percentile(lats, 0.99))
		}
		segRate = append(segRate, float64(acked)/elapsed.Seconds())
		if r := reads.lats[seenReads:]; len(r) > 0 {
			segRead = append(segRead, mean(r))
		}
	}

	var lats []float64
	acked := 0
	truth := append([]int(nil), c.dep.prePhase...)
	var disguise, roundtrip time.Duration
	var samples [][]int
	for _, st := range writers {
		out.attempted += st.batches
		out.failed += st.failed
		out.checkf(st.lastErr == nil, "a batch failed: %v", st.lastErr)
		lats = append(lats, st.lats...)
		acked += st.acked
		for i, v := range st.counts {
			truth[i] += v
		}
		disguise += st.disguise
		roundtrip += st.roundtrip
		samples = append(samples, st.samples...)
	}
	out.attempted += reads.reads
	out.failed += reads.failed
	out.checkf(reads.lastErr == nil, "a read failed: %v", reads.lastErr)

	// Correctness: every acknowledged report landed, and the estimates
	// agree with the values that were sent.
	want := restored + acked + cfg.countSkew
	out.checkf(svc.srv.Count() == want, "server counts %d reports, want %d restored + %d acknowledged",
		svc.srv.Count(), restored, want-restored)
	total := prePhaseReports + acked
	freq := make([]float64, len(truth))
	for i, v := range truth {
		freq[i] = float64(v) / float64(total)
	}
	snr := c.check(out, svc, client, freq)

	if len(lats) == 0 || (c.reads && len(reads.lats) == 0) {
		return out, nil
	}
	// op_ms is a mean, of batches or of reads: with the writers and the
	// service sharing two cores, latencies fall into modes (batches that
	// overlap the other writer's or not, point queries and heavy-hitter
	// scans) whose mix shifts from run to run, and a median jumps between
	// them.
	batchP50, batchP99, throughput := median(segP50), median(segP99), median(segRate)
	op, opTail := median(segMean), batchP99
	if c.reads {
		r := sortedCopy(reads.lats)
		op, opTail = median(segRead), percentile(r, 0.95)
	}
	if !cfg.trace {
		out.metrics["setup_s"] = setup.total / 1e3
		out.metrics["op_ms"] = op
		out.metrics["op_tail_ms"] = opTail
		out.metrics["throughput_per_s"] = throughput
		out.metrics["quality"] = snr
		return out, nil
	}

	m := out.metrics
	m["traced.op_ms"] = op
	m["traced.op_tail_ms"] = opTail
	m["traced.throughput_per_s"] = throughput
	m["ingest.batch_p50_ms"] = batchP50
	m["ingest.batch_p99_ms"] = batchP99
	m["rrserver.restore_ms"] = setup.restore
	m["rrclient.scheme_fetch_ms"] = setup.fetch
	batches := float64(len(lats))
	m["rrclient.disguise_ns"] = float64(disguise) / (batches * batchSize)
	m["http.roundtrip_ns"] = float64(roundtrip) / batches
	handler := timer.stats("POST /v1/reports")
	m["rrserver.handler_ns"] = handler.meanNs()
	if err := c.ingestLedger(m, samples, timer.bodies()); err != nil {
		return nil, err
	}
	transport, err := transportProbe(timer.bodies(), c.writers)
	if err != nil {
		return nil, err
	}
	m["transport_ns"] = transport
	// The ledger: a batch's client-side wall time against the sum of its
	// separately timed parts.
	wall := m["rrclient.disguise_ns"]*batchSize + m["http.roundtrip_ns"]
	parts := (m["rrclient.disguise_ns"]+m["rrapi.encode_ns"])*batchSize + transport + m["rrserver.handler_ns"]
	m["ingest.unexplained_ns"] = wall - parts
	if err := snapshotLedger(m, svc.srv, snapshot); err != nil {
		return nil, err
	}
	if c.reads {
		est, hh := timer.stats("GET /v1/estimate"), timer.stats("GET /v1/heavyhitters")
		m["rrserver.estimate_handler_ms"] = est.meanNs() / 1e6
		m["rrserver.heavyhitters_handler_ms"] = hh.meanNs() / 1e6
		m["rrapi.response_bytes"] = float64(est.bytes+hh.bytes) / float64(est.count+hh.count)
		m["query.generator_lag_ms"] = mean(reads.lags)
		if err := readLedger(m, svc.srv.SketchCollector(), c.dep.tracked[:pointQueries]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// signalToNoise is the median over categories of true frequency over the
// stated half-width: how precisely the run's reports pin the distribution
// down.
func signalToNoise(truth, halfWidth []float64) float64 {
	var r []float64
	for i := 0; i < len(truth) && i < len(halfWidth); i++ {
		if halfWidth[i] > 0 {
			r = append(r, truth[i]/halfWidth[i])
		}
	}
	return median(r)
}

// transportProbe times the loopback HTTP transport alone: the run's own
// batch bodies posted by as many goroutines as the run had writers, each on
// its own connection, to a handler that only drains the body and
// acknowledges. It returns nanoseconds per request.
func transportProbe(bodies [][]byte, conns int) (float64, error) {
	if len(bodies) == 0 {
		return 0, fmt.Errorf("traced run kept no request bodies")
	}
	ack, err := json.Marshal(rrapi.IngestResponse{Accepted: batchSize})
	if err != nil {
		return 0, err
	}
	srv, err := obs.ServeMux("127.0.0.1:0", nil, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /v1/reports", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write(ack)
		})
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/v1/reports"
	per := make([]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
			per[g] = perCall(func(k int) {
				resp, err := hc.Post(url, "application/json", bytes.NewReader(bodies[(k+g)%len(bodies)]))
				if err != nil {
					errs[g] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			})
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return mean(per), nil
}

// ingestLedger times the ingest layers the load loop cannot separate, by
// replaying the run's own batches: JSON encode and decode, and collector
// landing bare and instrumented.
func (c *collection) ingestLedger(m map[string]float64, samples [][]int, bodies [][]byte) error {
	if len(samples) == 0 || len(bodies) == 0 {
		return fmt.Errorf("traced run kept no batches to replay")
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	size := 0
	for _, s := range samples {
		data, err := json.Marshal(rrapi.BatchRequest{Reports: s})
		note(err)
		size += len(data)
	}
	m["rrapi.request_bytes"] = float64(size) / float64(len(samples)*batchSize)
	m["rrapi.encode_ns"] = perCall(func(k int) {
		_, err := json.Marshal(rrapi.BatchRequest{Reports: samples[k%len(samples)]})
		note(err)
	}) / batchSize
	m["rrapi.decode_ns"] = perCall(func(k int) {
		var req rrapi.BatchRequest
		note(json.NewDecoder(bytes.NewReader(bodies[k%len(bodies)])).Decode(&req))
	}) / batchSize
	bare := c.landing()
	m["collector.ingest_ns"] = perCall(func(k int) { note(bare.IngestBatch(samples[k%len(samples)])) }) / batchSize
	inst := c.landing()
	inst.Instrument(nil, obs.NewRegistry())
	m["collector.ingest_instrumented_ns"] = perCall(func(k int) { note(inst.IngestBatch(samples[k%len(samples)])) }) / batchSize
	return firstErr
}

// snapshotLedger times SnapshotNow, the call the persistence loop makes.
func snapshotLedger(m map[string]float64, srv *rrserver.Server, path string) error {
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		if err := srv.SnapshotNow(); err != nil {
			return err
		}
		times[i] = ms(time.Since(t0))
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["rrserver.snapshot_ms"] = median(times)
	m["rrserver.snapshot_bytes"] = float64(info.Size())
	return nil
}

// readLedger times the collector's query calls directly, without HTTP.
func readLedger(m map[string]float64, col *collector.SketchCollector, cats []int) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["collector.estimate_ms"] = perCall(func(int) {
		_, err := col.Estimate(cats...)
		note(err)
	}) / 1e6
	m["collector.heavyhitters_ms"] = perCall(func(int) {
		_, err := col.HeavyHitters(hhThreshold, hhLimit)
		note(err)
	}) / 1e6
	return firstErr
}

func runIngestDense(cfg runConfig) (*outcome, error) {
	m, err := rr.Warner(denseCategories, denseWarnerP)
	if err != nil {
		return nil, err
	}
	prior := normalPrior(denseCategories, paperRecords, cfg.seed)
	alias, err := randx.NewAlias(prior)
	if err != nil {
		return nil, err
	}
	tracked := make([]int, denseCategories)
	for i := range tracked {
		tracked[i] = i
	}
	dep := deployment{scheme: m, tracked: tracked}
	rng := randx.Stream(cfg.seed, streamValues)
	pre := batchPool(1, prePhaseReports, tracked, rng, alias.Draw)[0]
	dep.prePhase = pre.counts
	if err := writePrePhase(filepath.Join(cfg.dir, "snapshot.json"), m, pre.values, cfg.seed, collector.NewSharded(m, 0)); err != nil {
		return nil, fmt.Errorf("pre-phase: %w", err)
	}
	for w := 0; w < maxConns; w++ {
		dep.pool = append(dep.pool, batchPool(poolBatches, batchSize, tracked, rng, alias.Draw))
	}
	c := &collection{
		cfg: cfg, dep: dep, writers: maxConns,
		landing: func() interface {
			IngestBatch([]int) error
			Instrument(obs.Recorder, *obs.Registry)
		} {
			return collector.NewSharded(m, 0)
		},
		check: func(out *outcome, svc *service, client *rrclient.Client, truth []float64) float64 {
			est, err := client.Estimate(context.Background(), 0)
			if err != nil {
				out.checkf(false, "final estimate: %v", err)
				return 0
			}
			out.checkf(len(est.Estimate) == denseCategories && len(est.HalfWidth) == denseCategories,
				"final estimate has %d categories and %d half-widths", len(est.Estimate), len(est.HalfWidth))
			for i := 0; i < len(est.Estimate) && i < len(est.HalfWidth); i++ {
				diff := math.Abs(est.Estimate[i] - truth[i])
				out.checkf(diff <= checkSlack*est.HalfWidth[i], "category %d: estimate %.6f is %.6f from the truth %.6f, beyond %.2f times its half-width %.6f",
					i, est.Estimate[i], diff, truth[i], checkSlack, est.HalfWidth[i])
			}
			return signalToNoise(truth, est.HalfWidth)
		},
	}
	return c.run()
}

func runCollectSketchMixed(cfg runConfig) (*outcome, error) {
	scheme, err := sketch.NewKRR(sketchDomain, sketchHashes, sketchRange, sketchEpsilon,
		randx.StreamSeed(cfg.seed, streamHash))
	if err != nil {
		return nil, err
	}
	z := newZipf(sketchDomain, cfg.seed)
	tracked := z.head(trackedHead)
	dep := deployment{scheme: scheme, tracked: tracked}
	rng := randx.Stream(cfg.seed, streamValues)
	pre := batchPool(1, prePhaseReports, tracked, rng, z.draw)[0]
	dep.prePhase = pre.counts
	if err := writePrePhase(filepath.Join(cfg.dir, "snapshot.json"), scheme, pre.values, cfg.seed, collector.NewSketch(scheme, 0)); err != nil {
		return nil, fmt.Errorf("pre-phase: %w", err)
	}
	dep.pool = [][]valueBatch{batchPool(poolBatches, batchSize, tracked, rng, z.draw)}
	c := &collection{
		cfg: cfg, dep: dep, writers: 1, reads: true,
		landing: func() interface {
			IngestBatch([]int) error
			Instrument(obs.Recorder, *obs.Registry)
		} {
			return collector.NewSketch(scheme, 0)
		},
		check: func(out *outcome, svc *service, client *rrclient.Client, truth []float64) float64 {
			ctx := context.Background()
			hits, err := client.HeavyHitters(ctx, hhThreshold, hhLimit)
			if err != nil {
				out.checkf(false, "final heavy hitters: %v", err)
				return 0
			}
			inHead := map[int]bool{}
			for _, c := range tracked {
				inHead[c] = true
			}
			found := map[int]bool{}
			for _, h := range hits.Hits {
				found[h.Category] = true
				out.checkf(inHead[h.Category], "false heavy hitter: category %d at %.4f", h.Category, h.Estimate)
			}
			out.checkf(found[tracked[0]] && found[tracked[1]], "planted Zipf head %v missing from heavy hitters %v", tracked[:2], hits.Hits)
			est, err := client.EstimateCategories(ctx, tracked[:pointQueries])
			if err != nil {
				out.checkf(false, "final point estimates: %v", err)
				return 0
			}
			out.checkf(len(est.Estimate) == pointQueries && len(est.HalfWidth) == pointQueries,
				"point query returned %d estimates and %d half-widths", len(est.Estimate), len(est.HalfWidth))
			for i := 0; i < len(est.Estimate) && i < len(est.HalfWidth); i++ {
				diff := math.Abs(est.Estimate[i] - truth[i])
				out.checkf(diff <= checkSlack*est.HalfWidth[i], "category %d: estimate %.6f is %.6f from the truth %.6f, beyond %.2f times its half-width %.6f",
					tracked[i], est.Estimate[i], diff, truth[i], checkSlack, est.HalfWidth[i])
			}
			return signalToNoise(truth[:pointQueries], est.HalfWidth)
		},
	}
	return c.run()
}

// routeTimer is the traced run's timing wrapper around the service's mux:
// per-route handler time and response bytes, plus a sample of batch
// request bodies for the decode replay.
type routeTimer struct {
	mu      sync.Mutex
	routes  map[string]*routeStats
	samples [][]byte
}

type routeStats struct {
	count int
	ns    int64
	bytes int64
}

func (s routeStats) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.count)
}

func (rt *routeTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		route := r.Method + " " + r.URL.Path
		if route == "POST /v1/reports" && rt.wantSample() {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				rt.mu.Lock()
				rt.samples = append(rt.samples, body)
				rt.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		d := time.Since(t0)
		rt.mu.Lock()
		st := rt.routes[route]
		if st == nil {
			st = &routeStats{}
			rt.routes[route] = st
		}
		st.count++
		st.ns += int64(d)
		st.bytes += cw.n
		rt.mu.Unlock()
	})
}

func (rt *routeTimer) wantSample() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.samples) < sampleBatches
}

// reset drops what set-up recorded, so the ledger covers the load phase.
func (rt *routeTimer) reset() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.routes = map[string]*routeStats{}
}

func (rt *routeTimer) stats(route string) routeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st := rt.routes[route]; st != nil {
		return *st
	}
	return routeStats{}
}

func (rt *routeTimer) bodies() [][]byte {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.samples
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
