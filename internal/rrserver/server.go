// Package rrserver implements the LDP collection service behind cmd/rrserver:
// an HTTP/JSON front over one collector.Collector, realizing the paper's
// Section I deployment literally — a fleet of respondents disguises locally
// (internal/rrclient) and POSTs only disguised reports; this server
// aggregates them and debiases on demand to answer distribution queries
// with confidence half-widths.
//
// Endpoints (mounted on an obs debug server via obs.ServeMux, so /metrics,
// /healthz, expvar and pprof ride along):
//
//	POST /v1/report       {"report": k}        ingest one disguised report
//	POST /v1/reports      {"reports": [k...]}  ingest a batch atomically
//	GET  /v1/estimate     debiased estimate + confidence half-widths;
//	                      ?z= overrides the quantile, ?categories=3,17,42
//	                      asks for point estimates, ?margin= projects the
//	                      report count that reaches a target (dense
//	                      matrices only)
//	GET  /v1/scheme       the deployed disguise scheme (clients sample
//	                      locally); ETagged with the scheme version, so
//	                      If-None-Match polling is a 304 until redeployment
//	GET  /v1/heavyhitters ?threshold= (required) frequency floor, ?limit=
//	                      caps the result; scans the original domain
//
// Every handler takes one path whatever the deployed rr.Scheme: the
// collector asks the scheme for its estimate and bounds
// (rr.Scheme.Reconstruct), which are Theorem 6's for a dense *rr.Matrix and
// the sketch's own for a count-mean sketch (O(k·m) state); only ?margin=
// needs the dense kind. When the domain is larger than the report space,
// /v1/estimate requires ?categories=.
// Ingest bodies are capped before decoding. Batch bodies are decoded in one
// pass by rrapi.DecodeBatch, whose strict grammar answers 400 to some
// bodies encoding/json would read ({}, a null array, unknown or duplicate
// members, trailing data). The collection state is persisted durably and
// restored at boot through one path (see recover).
package rrserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"optrr/internal/collector"
	"optrr/internal/obs"
	"optrr/internal/rr"
	"optrr/internal/rrapi"
)

// DefaultZ is the confidence quantile estimates are served at when the
// config leaves it zero (1.96 ≈ 95% normal coverage).
const DefaultZ = 1.96

// DefaultMaxBatch caps POST /v1/reports bodies when the config leaves
// MaxBatch zero. One batch lands under a single shard mutex, so the cap
// bounds both memory per request and the longest write a query can wait on.
const DefaultMaxBatch = 1 << 17

// bodySlack is the room an ingest body gets beyond its reports, for the
// JSON envelope and incidental whitespace.
const bodySlack = 1 << 10

// Config parameterizes a collection service.
type Config struct {
	// Scheme is the deployed disguise scheme (required): a dense
	// *rr.Matrix for classic full-domain collection or a sketch scheme for
	// large domains.
	Scheme rr.Scheme
	// Shards is the collector shard count (<= 0 picks the GOMAXPROCS
	// default).
	Shards int
	// Z is the confidence quantile for /v1/estimate (0 means DefaultZ).
	Z float64
	// SnapshotPath enables crash recovery: the collection state is restored
	// from this file at construction and persisted to it periodically and on
	// shutdown. Empty disables persistence.
	SnapshotPath string
	// SnapshotEvery is the persistence period (0 means 30s).
	SnapshotEvery time.Duration
	// MaxBatch caps the reports accepted in one POST /v1/reports
	// (0 means DefaultMaxBatch).
	MaxBatch int
	// Recorder receives collector and server trace events; nil records
	// nothing.
	Recorder obs.Recorder
	// Registry collects server metrics; nil uses a private registry.
	Registry *obs.Registry
	// Logf is the warning/lifecycle logger (nil means the stdlib log
	// package).
	Logf func(format string, args ...any)
}

// Server is the collection service: the collector plus the HTTP handlers
// and the snapshot loop. Construct with New, mount with Register, run the
// persistence loop with Run.
type Server struct {
	cfg        Config
	schemeBody []byte // the GET /v1/scheme 200 body, encoded once
	version    string // rr.SchemeVersion fingerprint, doubles as the ETag
	col        *collector.Collector
	rec        obs.Recorder
	logf       func(string, ...any)
	restored   bool
	// reportWidth is the digit width of the largest report index.
	reportWidth int64

	ingestLat    *obs.Histogram // rrserver.ingest_ns: per-request ingest latency
	httpErrs     *obs.Counter   // rrserver.http_errors
	snapshots    *obs.Counter   // rrserver.snapshots
	snapshotErrs *obs.Counter   // rrserver.snapshot_errors
	snapshotSize *obs.Gauge     // rrserver.snapshot_bytes

	batches sync.Pool // *batchScratch for handleBatch
}

// warmer is a scheme that can build ahead of the first query what its
// estimator otherwise builds on first use, as sketch.CMSScheme builds the
// inverse of its inner matrix.
type warmer interface {
	Warm() error
}

// New builds the service and, when cfg.SnapshotPath names an existing file,
// attempts crash recovery (see recover).
func New(cfg Config) (*Server, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("rrserver: config needs a disguise scheme")
	}
	if cfg.Z == 0 {
		cfg.Z = DefaultZ
	}
	if !(cfg.Z > 0) || math.IsInf(cfg.Z, 1) {
		return nil, fmt.Errorf("rrserver: z must be a positive finite number, got %v", cfg.Z)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	// A scheme that builds its estimator on first use (the sketch's inner
	// inverse) builds it now, so the first query pays nothing for it.
	if w, ok := cfg.Scheme.(warmer); ok {
		if err := w.Warm(); err != nil {
			return nil, fmt.Errorf("rrserver: preparing the deployed scheme's estimator: %w", err)
		}
	}
	// The deployed scheme is encoded once: the envelope is the /v1/scheme
	// body's payload, the fingerprint the ETag, and the collector keeps it
	// for every snapshot.
	env, err := rr.MarshalScheme(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("rrserver: encoding deployed scheme: %w", err)
	}
	version := rr.EnvelopeVersion(env)
	dense, _ := cfg.Scheme.(*rr.Matrix) // old clients read the legacy matrix field
	body, err := rrapi.EncodeSchemeResponse(rrapi.SchemeResponse{
		Kind:    cfg.Scheme.Kind(),
		Scheme:  env,
		Version: version,
		Matrix:  dense,
		Z:       cfg.Z,
	})
	if err != nil {
		return nil, fmt.Errorf("rrserver: encoding the /v1/scheme body: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		schemeBody: body,
		version:    version,
		rec:        obs.OrNop(cfg.Recorder),
		logf:       cfg.Logf,
		ingestLat: cfg.Registry.Histogram("rrserver.ingest_ns",
			obs.LogBuckets(1000, 4, 12)), // 1µs .. ~4s
		httpErrs:     cfg.Registry.Counter("rrserver.http_errors"),
		snapshots:    cfg.Registry.Counter("rrserver.snapshots"),
		snapshotErrs: cfg.Registry.Counter("rrserver.snapshot_errors"),
		snapshotSize: cfg.Registry.Gauge("rrserver.snapshot_bytes"),
		reportWidth:  int64(len(strconv.Itoa(cfg.Scheme.ReportSpace() - 1))),
		batches:      sync.Pool{New: func() any { return new(batchScratch) }},
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if cfg.SnapshotPath != "" {
		s.col = s.recover(cfg.SnapshotPath, env)
	}
	if s.col == nil {
		s.col = collector.NewEncoded(cfg.Scheme, env, cfg.Shards)
	}
	s.col.Instrument(cfg.Recorder, cfg.Registry)
	return s, nil
}

// recover restores the collector from path, or returns nil to start fresh.
// Only a clean "file does not exist" is silent. A snapshot that the server
// itself wrote under the deployed scheme carries env byte for byte, and
// collector.RestoreOnto lands its counts on cfg.Scheme without decoding the
// scheme again; its version is then the deployed one, not hashed again.
// Any other snapshot is decoded and its scheme's version compared with the
// deployed one. A snapshot that fails to restore, or whose version
// differs, is moved aside to <path>.rejected — the next persist would
// otherwise overwrite the only copy of that campaign — with one logged
// warning.
func (s *Server) recover(path string, env []byte) *collector.Collector {
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logf("rrserver: reading snapshot %s: %v; starting fresh", path, err)
		}
		return nil
	}
	version := s.version
	col, err := collector.RestoreOnto(data, s.cfg.Shards, s.cfg.Scheme, env)
	if err == nil && col.Scheme() != s.cfg.Scheme {
		version, err = col.SchemeVersion()
	}
	switch {
	case err != nil:
		s.logf("rrserver: snapshot %s rejected (%v); %s; starting fresh", path, err, setAside(path))
	case version != s.version:
		s.logf("rrserver: snapshot %s was collected under a different scheme (version %s, deployed %s: a different disguise matrix or hash family); %s; starting fresh",
			path, version, s.version, setAside(path))
	default:
		s.restored = true
		s.logf("rrserver: restored %d reports from %s", col.Count(), path)
		return col
	}
	return nil
}

// setAside moves a rejected snapshot to path + ".rejected" and says where
// it went, for the rejection warning.
func setAside(path string) string {
	aside := path + ".rejected"
	if err := os.Rename(path, aside); err != nil {
		return fmt.Sprintf("could not move it aside (%v)", err)
	}
	return "moved it to " + aside
}

// Restored reports whether construction recovered state from a snapshot.
func (s *Server) Restored() bool { return s.restored }

// Collector exposes the underlying collector (e.g. for tests and the
// in-process load driver).
func (s *Server) Collector() *collector.Collector { return s.col }

// Deprecated: use Collector; kept only because perfbench, pinned with the benchmark, calls it.
func (s *Server) SketchCollector() *collector.Collector { return s.col }

// Scheme returns the deployed disguise scheme.
func (s *Server) Scheme() rr.Scheme { return s.cfg.Scheme }

// SchemeVersion returns the deployed scheme's wire fingerprint — the value
// GET /v1/scheme serves as its ETag.
func (s *Server) SchemeVersion() string { return s.version }

// Count returns the number of reports ingested so far.
func (s *Server) Count() int { return s.col.Count() }

// Categories returns the original-domain size of the deployed scheme.
func (s *Server) Categories() int { return s.cfg.Scheme.Domain() }

// Z returns the configured confidence quantile.
func (s *Server) Z() float64 { return s.cfg.Z }

// Register mounts the /v1 API on mux. Pass it to obs.ServeMux so the API
// shares the debug server's listener, graceful shutdown, /healthz and
// /metrics.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/report", s.handleReport)
	mux.HandleFunc("POST /v1/reports", s.handleBatch)
	mux.HandleFunc("GET /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/scheme", s.handleScheme)
	mux.HandleFunc("GET /v1/heavyhitters", s.handleHeavyHitters)
}

// Run drives periodic snapshot persistence until ctx is done, then writes
// one final snapshot so a graceful shutdown loses nothing. With persistence
// disabled it just blocks until ctx is done. The returned error is the final
// snapshot's (nil on a clean drain). Cancel ctx only after the HTTP server
// has drained, so the final snapshot includes every in-flight ingest.
func (s *Server) Run(ctx context.Context) error {
	if s.cfg.SnapshotPath == "" {
		<-ctx.Done()
		return nil
	}
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return s.SnapshotNow()
		case <-t.C:
			if err := s.SnapshotNow(); err != nil {
				s.logf("rrserver: periodic snapshot: %v", err)
			}
		}
	}
}

// SnapshotNow persists the collection state to cfg.SnapshotPath (see
// writeDurably), so a crash at any point leaves the previous good snapshot
// or the new one, never a torn or vanished file.
func (s *Server) SnapshotNow() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	start := time.Now()
	data, err := s.col.MarshalJSON()
	if err == nil {
		err = writeDurably(s.cfg.SnapshotPath, data)
	}
	if err != nil {
		s.snapshotErrs.Inc()
		return fmt.Errorf("rrserver: snapshot: %w", err)
	}
	s.snapshots.Inc()
	s.snapshotSize.Set(float64(len(data)))
	if s.rec.Enabled() {
		s.rec.Record("rrserver.snapshot", obs.Fields{
			"reports": s.col.Count(),
			"bytes":   len(data),
			"ms":      float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
	return nil
}

// writeDurably replaces path with data: write a temp file in the same
// directory, fsync it, rename it into place, then fsync the directory so
// the rename itself survives a power loss.
func writeDurably(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rrserver-snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename succeeded
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// decodeBody decodes a JSON ingest body capped at limit bytes, answering
// 413 when the cap is hit and 400 for any other decode failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		s.writeError(w, bodyStatus(err), fmt.Errorf("decoding body: %v", err))
	}
	return err == nil
}

// bodyStatus answers a failed ingest body: 413 when it hit the byte cap,
// 400 for anything else.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleReport ingests one disguised report.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req rrapi.ReportRequest
	if !s.decodeBody(w, r, bodySlack+s.reportWidth, &req) {
		return
	}
	if err := s.col.Ingest(req.Report); err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	s.ingestLat.Observe(float64(time.Since(start).Nanoseconds()))
	s.writeJSON(w, http.StatusOK, rrapi.IngestResponse{Accepted: 1})
}

// handleBatch ingests a batch of disguised reports atomically. The body cap
// gives each of MaxBatch reports its digits plus a comma and a space. The
// body is read whole into pooled scratch and decoded in one pass by
// rrapi.DecodeBatch, so a steady stream of batches allocates no body or
// report storage.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	scratch := s.batches.Get().(*batchScratch)
	defer s.batches.Put(scratch)
	body := bytes.NewBuffer(scratch.body[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, bodySlack+int64(s.cfg.MaxBatch)*(s.reportWidth+2)))
	scratch.body = body.Bytes()
	if err == nil {
		scratch.reports, err = rrapi.DecodeBatch(scratch.body, scratch.reports)
	}
	if err != nil {
		s.writeError(w, bodyStatus(err), fmt.Errorf("decoding body: %v", err))
		return
	}
	reports := scratch.reports
	if len(reports) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds the %d-report limit", len(reports), s.cfg.MaxBatch))
		return
	}
	if len(reports) > 0 {
		if err := s.col.IngestBatch(reports); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
	}
	s.ingestLat.Observe(float64(time.Since(start).Nanoseconds()))
	s.writeJSON(w, http.StatusOK, rrapi.IngestResponse{Accepted: len(reports)})
}

// batchScratch is one in-flight batch's storage: the request body and the
// reports decoded from it. Nothing keeps a reference once the handler
// returns (the collector copies reports into its counters), so the pool
// hands the same storage to the next batch.
type batchScratch struct {
	body    []byte
	reports []int
}

// handleEstimate serves the current reconstruction with confidence
// half-widths (?z=, ?categories=, ?margin=; see the package comment). When
// the domain is larger than the report space ?categories= is required: a
// full-domain response over a million-category sketch would be exactly the
// dense payload the sketch exists to avoid.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	z := s.cfg.Z
	if raw := q.Get("z"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad z %q: %v", raw, err))
			return
		}
		z = v
	}
	var cats []int
	if raw := q.Get("categories"); raw != "" {
		var err error
		if cats, err = parseCategories(raw, s.cfg.Scheme.Domain()); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	} else if s.cfg.Scheme.Domain() > s.cfg.Scheme.ReportSpace() {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf(
			"the %d-category domain exceeds the %d-report space, so estimates are point queries: pass ?categories=i,j,... or use /v1/heavyhitters",
			s.cfg.Scheme.Domain(), s.cfg.Scheme.ReportSpace()))
		return
	}
	sum, err := s.col.Snapshot(z, cats...)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	resp := rrapi.EstimateResponse{
		Reports:    sum.Reports,
		Disguised:  sum.Disguised,
		Estimate:   sum.Estimate,
		HalfWidth:  sum.HalfWidth,
		Z:          sum.Z,
		Categories: cats,
	}
	for _, h := range sum.HalfWidth {
		if h > resp.Margin {
			resp.Margin = h
		}
	}
	if raw := q.Get("margin"); raw != "" {
		target, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad margin %q: %v", raw, err))
			return
		}
		need, err := s.col.ReportsForMargin(target, z)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		resp.ReportsForMargin = need
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// parseCategories decodes a comma-separated ?categories= list and bounds it
// against the scheme domain.
func parseCategories(raw string, domain int) ([]int, error) {
	parts := strings.Split(raw, ",")
	cats := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad category %q: %v", p, err)
		}
		if v < 0 || v >= domain {
			return nil, fmt.Errorf("category %d outside the %d-category domain", v, domain)
		}
		cats = append(cats, v)
	}
	if len(cats) == 0 {
		return nil, fmt.Errorf("empty ?categories= list")
	}
	return cats, nil
}

// handleHeavyHitters scans the original domain for categories whose
// reconstructed frequency clears ?threshold=, sorted by estimate descending
// (ties by category index); ?limit= caps the result. Over a sketch it is the
// paper-motivating query (frequent categories without a dense
// reconstruction); over a dense matrix it ranks the clipped full-domain
// estimate /v1/estimate serves. The response's reports is the count of the
// one fold the hits were estimated from.
func (s *Server) handleHeavyHitters(w http.ResponseWriter, r *http.Request) {
	rawThr := r.URL.Query().Get("threshold")
	if rawThr == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing required ?threshold="))
		return
	}
	threshold, err := strconv.ParseFloat(rawThr, 64)
	if err != nil || !(threshold >= 0) {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q", rawThr))
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", raw))
			return
		}
	}
	hits, reports, err := s.col.ScanHeavyHitters(threshold, limit)
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	resp := rrapi.HeavyHittersResponse{
		Reports:   reports,
		Threshold: threshold,
		Hits:      make([]rrapi.HeavyHitter, len(hits)),
	}
	for i, h := range hits {
		resp.Hits[i] = rrapi.HeavyHitter{Category: h.Category, Estimate: h.Estimate}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleScheme serves the deployed disguise scheme so clients can sample
// locally and never upload a true value: the body New encoded once, which
// for dense deployments also fills the legacy Matrix field for old clients.
// The scheme version is the ETag: clients polling for redeployment send
// If-None-Match and get a bodyless 304 until the scheme actually changes.
func (s *Server) handleScheme(w http.ResponseWriter, r *http.Request) {
	etag := `"` + s.version + `"`
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// A declared length, where a body this large (1.4 MB for a sketch) would
	// otherwise be chunked, lets a client that reads the body's last byte
	// also see its end, so its connection is pooled, not dropped.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(s.schemeBody)))
	w.WriteHeader(http.StatusOK)
	w.Write(s.schemeBody) //nolint:errcheck // client gone; nothing to do
}

// statusFor maps collector errors onto HTTP statuses: client mistakes are
// 4xx, a not-yet-answerable estimate is 409, an undefined estimator is 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, collector.ErrBadReport), errors.Is(err, collector.ErrBadMargin):
		return http.StatusBadRequest
	case errors.Is(err, collector.ErrNoReports), errors.Is(err, rr.ErrEmptyData):
		return http.StatusConflict
	case errors.Is(err, rr.ErrSingular):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.httpErrs.Inc()
	s.writeJSON(w, code, rrapi.ErrorResponse{Error: err.Error()})
}
