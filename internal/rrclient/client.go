// Package rrclient is the respondent-side disguise SDK for the LDP
// collection service (cmd/rrserver). It enforces the paper's Section I
// privacy boundary in code: the client fetches the deployed disguise scheme
// once, samples the disguised report locally — through the scheme's own
// sampling (alias tables for a dense matrix, hash-then-disguise for the
// count-mean sketch) — and reports only the disguise. The private value
// never leaves the process.
package rrclient

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrapi"

	// Register the sketch scheme codec so the SDK can decode a cms envelope
	// from any server without its users importing the sketch package.
	_ "optrr/internal/sketch"
)

// randomSeed seeds a production client's disguise draws from the OS entropy
// pool — respondent privacy must not hinge on a guessable stream — falling
// back to the clock only if that fails.
func randomSeed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Client talks to one rrserver deployment. It is safe for concurrent use:
// the scheme is fetched once and the sampler state is mutex-guarded, so one
// Client can front many reporting goroutines (each draw is serialized, which
// is fine — sampling is tens of nanoseconds against a network round trip).
type Client struct {
	base string
	hc   *http.Client

	mu      sync.Mutex
	scheme  rr.Scheme
	version string
	rng     *randx.Source
	z       float64
}

// requestTimeout bounds every request the SDK's own HTTP client makes, so a
// stalled server cannot hang a respondent whose context has no deadline.
const requestTimeout = 30 * time.Second

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (e.g. one with its
// own timeout or a test transport).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithSeed makes the client's disguise draws deterministic — for tests and
// simulations only; production respondents should keep the default
// per-client random seeding irrelevant by being distinct processes.
func WithSeed(seed uint64) Option {
	return func(c *Client) { c.rng = randx.New(seed) }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8433"). No network traffic happens until the first call.
// Unless WithHTTPClient substitutes one, requests go through an HTTP client
// of the SDK's own that gives up on any request after 30 seconds.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: requestTimeout},
		rng:  randx.New(randomSeed()),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Scheme returns the deployed disguise matrix, fetching and caching the
// scheme on first use. It fails for a non-dense deployment (the sketch has
// no matrix to hand out); use DeployedScheme for the scheme-generic form.
func (c *Client) Scheme(ctx context.Context) (*rr.Matrix, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureSchemeLocked(ctx); err != nil {
		return nil, err
	}
	m, ok := c.scheme.(*rr.Matrix)
	if !ok {
		return nil, fmt.Errorf("rrclient: deployed scheme is %q, not a dense matrix; use DeployedScheme", c.scheme.Kind())
	}
	return m, nil
}

// DeployedScheme returns the deployed disguise scheme, fetching and caching
// it on first use.
func (c *Client) DeployedScheme(ctx context.Context) (rr.Scheme, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureSchemeLocked(ctx); err != nil {
		return nil, err
	}
	return c.scheme, nil
}

// SchemeVersion returns the cached scheme's wire fingerprint (the server's
// /v1/scheme ETag), fetching the scheme on first use.
func (c *Client) SchemeVersion(ctx context.Context) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureSchemeLocked(ctx); err != nil {
		return "", err
	}
	return c.version, nil
}

// ensureSchemeLocked fetches GET /v1/scheme once and caches the decoded
// scheme and its version. New servers carry a kind-tagged envelope; the
// legacy matrix-only body (from servers predating the scheme abstraction, or
// bare-matrix test fakes) is accepted as a dense scheme.
func (c *Client) ensureSchemeLocked(ctx context.Context) error {
	if c.scheme != nil {
		return nil
	}
	resp, _, err := c.fetchScheme(ctx, "")
	if err != nil || resp == nil {
		return err
	}
	return c.adoptSchemeLocked(resp)
}

// fetchScheme runs GET /v1/scheme. A non-empty ifNoneMatch is sent as
// If-None-Match; a 304 answer returns (nil, etag, nil).
func (c *Client) fetchScheme(ctx context.Context, ifNoneMatch string) (*rrapi.SchemeResponse, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/scheme", nil)
	if err != nil {
		return nil, "", fmt.Errorf("rrclient: %w", err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	hr, err := c.hc.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("rrclient: GET /v1/scheme: %w", err)
	}
	defer hr.Body.Close()
	etag := hr.Header.Get("ETag")
	if hr.StatusCode == http.StatusNotModified {
		return nil, etag, nil
	}
	if hr.StatusCode/100 != 2 {
		var apiErr rrapi.ErrorResponse
		if err := json.NewDecoder(io.LimitReader(hr.Body, 1<<16)).Decode(&apiErr); err == nil && apiErr.Error != "" {
			return nil, etag, fmt.Errorf("rrclient: GET /v1/scheme: %s (HTTP %d)", apiErr.Error, hr.StatusCode)
		}
		return nil, etag, fmt.Errorf("rrclient: GET /v1/scheme: HTTP %d", hr.StatusCode)
	}
	var resp rrapi.SchemeResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, etag, fmt.Errorf("rrclient: decoding /v1/scheme response: %w", err)
	}
	return &resp, etag, nil
}

// adoptSchemeLocked decodes a scheme response into the cache.
func (c *Client) adoptSchemeLocked(resp *rrapi.SchemeResponse) error {
	scheme, version, err := decodeScheme(resp)
	if err != nil {
		return err
	}
	c.scheme, c.version, c.z = scheme, version, resp.Z
	return nil
}

// decodeScheme turns a /v1/scheme body into a scheme and its fingerprint,
// preferring the envelope and falling back to the legacy matrix field.
func decodeScheme(resp *rrapi.SchemeResponse) (rr.Scheme, string, error) {
	var scheme rr.Scheme
	switch {
	case len(resp.Scheme) > 0:
		s, err := rr.UnmarshalScheme(resp.Scheme)
		if err != nil {
			return nil, "", fmt.Errorf("rrclient: decoding scheme envelope: %w", err)
		}
		scheme = s
	case resp.Matrix != nil:
		scheme = resp.Matrix
	default:
		return nil, "", fmt.Errorf("rrclient: scheme response has no scheme")
	}
	version := resp.Version
	if version == "" {
		v, err := rr.SchemeVersion(scheme)
		if err != nil {
			return nil, "", fmt.Errorf("rrclient: fingerprinting scheme: %w", err)
		}
		version = v
	}
	return scheme, version, nil
}

// SchemeChanged asks the server whether the deployed scheme differs from the
// cached one, using If-None-Match against the scheme ETag so an unchanged
// deployment costs a bodyless 304. It never swaps the cached scheme — call
// RefreshScheme to adopt a new deployment. Without a cached scheme it
// fetches and caches one, reporting no change.
func (c *Client) SchemeChanged(ctx context.Context) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scheme == nil {
		return false, c.ensureSchemeLocked(ctx)
	}
	resp, _, err := c.fetchScheme(ctx, `"`+c.version+`"`)
	if err != nil {
		return false, err
	}
	if resp == nil { // 304: deployment unchanged
		return false, nil
	}
	_, version, err := decodeScheme(resp)
	if err != nil {
		return false, err
	}
	return version != c.version, nil
}

// RefreshScheme drops the cached scheme and fetches the currently deployed
// one, e.g. after SchemeChanged reports a redeployment.
func (c *Client) RefreshScheme(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scheme = nil
	return c.ensureSchemeLocked(ctx)
}

// Disguise samples the disguised report for one private value, locally.
// Nothing is sent; combine with Report/ReportBatch, or use ReportValue.
func (c *Client) Disguise(ctx context.Context, value int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disguiseLocked(ctx, value)
}

func (c *Client) disguiseLocked(ctx context.Context, value int) (int, error) {
	if err := c.ensureSchemeLocked(ctx); err != nil {
		return 0, err
	}
	if value < 0 || value >= c.scheme.Domain() {
		return 0, fmt.Errorf("rrclient: value %d outside the %d-category domain", value, c.scheme.Domain())
	}
	return c.scheme.DisguiseValue(value, c.rng)
}

// ReportValue disguises one private value locally and submits only the
// disguised report; it returns what was reported (never the input).
func (c *Client) ReportValue(ctx context.Context, value int) (int, error) {
	disguised, err := c.Disguise(ctx, value)
	if err != nil {
		return 0, err
	}
	if err := c.Report(ctx, disguised); err != nil {
		return 0, err
	}
	return disguised, nil
}

// ReportValues disguises each private value locally and submits the whole
// batch in one POST /v1/reports; it returns the disguised batch.
func (c *Client) ReportValues(ctx context.Context, values []int) ([]int, error) {
	c.mu.Lock()
	disguised := make([]int, len(values))
	for k, v := range values {
		d, err := c.disguiseLocked(ctx, v)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		disguised[k] = d
	}
	c.mu.Unlock()
	if err := c.ReportBatch(ctx, disguised); err != nil {
		return nil, err
	}
	return disguised, nil
}

// Report submits one already-disguised report (POST /v1/report). Most
// callers want ReportValue, which disguises first.
func (c *Client) Report(ctx context.Context, disguised int) error {
	body, err := json.Marshal(rrapi.ReportRequest{Report: disguised})
	if err != nil {
		return fmt.Errorf("rrclient: encoding request: %w", err)
	}
	var resp rrapi.IngestResponse
	return c.do(ctx, http.MethodPost, "/v1/report", body, &resp)
}

// ReportBatch submits a batch of already-disguised reports
// (POST /v1/reports), which land atomically on the collector. The body is
// encoded by rrapi.AppendBatch into storage of its own: the transport may
// still be reading a request body after Do returns.
func (c *Client) ReportBatch(ctx context.Context, disguised []int) error {
	var resp rrapi.IngestResponse
	return c.do(ctx, http.MethodPost, "/v1/reports", rrapi.AppendBatch(nil, disguised), &resp)
}

// Estimate fetches the server's current debiased reconstruction with
// per-category confidence half-widths. margin > 0 additionally asks the
// server to project the total report count needed to reach that margin
// (EstimateResponse.ReportsForMargin). Dense deployments only; sketch
// deployments answer point queries via EstimateCategories.
func (c *Client) Estimate(ctx context.Context, margin float64) (*rrapi.EstimateResponse, error) {
	path := "/v1/estimate"
	if margin > 0 {
		path += "?margin=" + strconv.FormatFloat(margin, 'g', -1, 64)
	}
	var resp rrapi.EstimateResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EstimateCategories fetches debiased point estimates for the given
// original-domain categories (GET /v1/estimate?categories=...), the query
// form sketch deployments answer.
func (c *Client) EstimateCategories(ctx context.Context, categories []int) (*rrapi.EstimateResponse, error) {
	if len(categories) == 0 {
		return nil, fmt.Errorf("rrclient: EstimateCategories needs at least one category")
	}
	parts := make([]string, len(categories))
	for i, v := range categories {
		parts[i] = strconv.Itoa(v)
	}
	var resp rrapi.EstimateResponse
	path := "/v1/estimate?categories=" + strings.Join(parts, ",")
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// HeavyHitters fetches the categories whose estimated frequency is at least
// threshold (GET /v1/heavyhitters), capped at limit when limit > 0.
func (c *Client) HeavyHitters(ctx context.Context, threshold float64, limit int) (*rrapi.HeavyHittersResponse, error) {
	path := "/v1/heavyhitters?threshold=" + strconv.FormatFloat(threshold, 'g', -1, 64)
	if limit > 0 {
		path += "&limit=" + strconv.Itoa(limit)
	}
	var resp rrapi.HeavyHittersResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do runs one JSON round trip with an already-encoded request body (nil for
// none). Non-2xx answers are surfaced as errors carrying the server's
// ErrorResponse message.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("rrclient: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("rrclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr rrapi.ErrorResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr); err == nil && apiErr.Error != "" {
			return fmt.Errorf("rrclient: %s %s: %s (HTTP %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("rrclient: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("rrclient: decoding %s response: %w", path, err)
	}
	return nil
}
