package rrclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optrr/internal/rr"
	"optrr/internal/rrapi"
)

// fakeService is a minimal rrserver stand-in: it serves a scheme and
// records every disguised report it is handed.
func fakeService(t *testing.T, m *rr.Matrix) (*httptest.Server, *atomic.Int64, *int32) {
	t.Helper()
	var reports atomic.Int64
	var schemeFetches int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/scheme", func(w http.ResponseWriter, _ *http.Request) {
		atomic.AddInt32(&schemeFetches, 1)
		json.NewEncoder(w).Encode(rrapi.SchemeResponse{Matrix: m, Z: 1.96}) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/reports", func(w http.ResponseWriter, r *http.Request) {
		var req rrapi.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		for _, rep := range req.Reports {
			if rep < 0 || rep >= m.N() {
				w.WriteHeader(http.StatusBadRequest)
				json.NewEncoder(w).Encode(rrapi.ErrorResponse{Error: "out of range"}) //nolint:errcheck
				return
			}
		}
		reports.Add(int64(len(req.Reports)))
		json.NewEncoder(w).Encode(rrapi.IngestResponse{Accepted: len(req.Reports)}) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/report", func(w http.ResponseWriter, r *http.Request) {
		var req rrapi.ReportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		reports.Add(1)
		json.NewEncoder(w).Encode(rrapi.IngestResponse{Accepted: 1}) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &reports, &schemeFetches
}

// TestClientDisguisesLocally: the scheme is fetched exactly once, draws are
// valid categories, deterministic under WithSeed, and out-of-domain private
// values are rejected client-side (nothing leaves the process).
func TestClientDisguisesLocally(t *testing.T) {
	m, err := rr.Warner(4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	srv, reports, fetches := fakeService(t, m)
	ctx := context.Background()

	c := New(srv.URL, WithSeed(5), WithHTTPClient(srv.Client()))
	got, err := c.ReportValues(ctx, []int{0, 1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		if d < 0 || d >= 4 {
			t.Fatalf("disguised report %d outside the domain", d)
		}
	}
	if reports.Load() != 5 {
		t.Fatalf("server saw %d reports, want 5", reports.Load())
	}
	if _, err := c.ReportValue(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(fetches); n != 1 {
		t.Fatalf("scheme fetched %d times, want 1 (cached)", n)
	}
	if _, err := c.Disguise(ctx, 4); err == nil {
		t.Fatal("out-of-domain private value accepted")
	}
	if _, err := c.Disguise(ctx, -1); err == nil {
		t.Fatal("negative private value accepted")
	}

	// Same seed, same values → same disguised stream (reproducible sims).
	c2 := New(srv.URL, WithSeed(5), WithHTTPClient(srv.Client()))
	got2, err := c2.ReportValues(ctx, []int{0, 1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if got[k] != got2[k] {
			t.Fatalf("seeded draws diverged at %d: %d vs %d", k, got[k], got2[k])
		}
	}
}

// TestClientSurfacesServerErrors: a non-2xx answer turns into an error
// carrying the server's message and status.
func TestClientSurfacesServerErrors(t *testing.T) {
	m, err := rr.Warner(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, _ := fakeService(t, m)
	c := New(srv.URL, WithSeed(1), WithHTTPClient(srv.Client()))
	err = c.ReportBatch(context.Background(), []int{0, 99})
	if err == nil {
		t.Fatal("out-of-range disguised batch accepted")
	}
	if !strings.Contains(err.Error(), "out of range") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("error lost the server message: %v", err)
	}
}

// TestClientDefaultTimeout: without WithHTTPClient the SDK sends through an
// HTTP client of its own with a timeout, so a stalled server fails a call
// whose context has no deadline instead of hanging the respondent.
// WithHTTPClient still overrides that client.
func TestClientDefaultTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	defer close(stall)

	c := New(srv.URL)
	if c.hc == http.DefaultClient || c.hc.Timeout <= 0 {
		t.Fatalf("default HTTP client has timeout %v (shared default client: %v), want the SDK's own with a timeout",
			c.hc.Timeout, c.hc == http.DefaultClient)
	}
	// Shorten this client's own timeout to watch it fire.
	c.hc.Timeout = 50 * time.Millisecond
	errc := make(chan error, 1)
	go func() { errc <- c.ReportBatch(context.Background(), []int{0}) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("a stalled server acknowledged the batch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReportBatch hung on a stalled server")
	}

	hc := &http.Client{}
	if got := New(srv.URL, WithHTTPClient(hc)).hc; got != hc {
		t.Fatal("WithHTTPClient did not replace the default client")
	}
}

// TestFetchSchemeBodyFraming: the scheme fetch reads a chunked body, which
// declares no length, and fails on a body cut short of its declared length
// instead of decoding what arrived.
func TestFetchSchemeBodyFraming(t *testing.T) {
	m, err := rr.Warner(4, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rrapi.SchemeResponse{Matrix: m, Z: 1.96})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /chunked/v1/scheme", func(w http.ResponseWriter, _ *http.Request) {
		w.Write(body[:len(body)/2]) //nolint:errcheck
		w.(http.Flusher).Flush()
		w.Write(body[len(body)/2:]) //nolint:errcheck
	})
	mux.HandleFunc("GET /short/v1/scheme", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)+64))
		w.Write(body) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ctx := context.Background()

	resp, err := srv.Client().Get(srv.URL + "/chunked/v1/scheme")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("test premise broken: chunked route answers with length %d, encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	got, err := New(srv.URL+"/chunked", WithHTTPClient(srv.Client())).Scheme(ctx)
	if err != nil {
		t.Fatalf("chunked body: %v", err)
	}
	if !got.Equal(m, 0) {
		t.Fatalf("chunked body decoded to %v, want %v", got, m)
	}

	if _, err := New(srv.URL+"/short", WithHTTPClient(srv.Client())).Scheme(ctx); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body cut short of its declared length: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadBody pins readBody's buffer sizing: a body at its declared length
// takes one allocation, a declared length past maxPrealloc allocates no
// more than the cap up front and still reads a body longer than the cap to
// its end, and an unknown length reads as io.ReadAll does. A reader that
// ends before its declared length yields what it read: reporting a body
// cut short is the HTTP body reader's job (TestFetchSchemeBodyFraming).
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	read := func(declared int64, b []byte) []byte {
		t.Helper()
		got, err := readBody(bytes.NewReader(b), declared)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("declared %d: read %d bytes, want the %d-byte body", declared, len(got), len(b))
		}
		return got
	}
	read(-1, body)
	read(0, nil)
	rd := bytes.NewReader(body)
	if n := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if got, err := readBody(rd, int64(len(body))); err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes, err %v", len(got), err)
		}
	}); n != 1 {
		t.Fatalf("body at its declared length: %v allocations, want 1", n)
	}
	if got := read(1<<40, body); cap(got) > maxPrealloc+1 {
		t.Fatalf("a declared 1 TiB allocated %d bytes up front, want at most %d", cap(got), maxPrealloc+1)
	}
	long := bytes.Repeat([]byte{'x'}, maxPrealloc+100)
	read(int64(len(long)), long)
	read(int64(len(body)), body[:len(body)/2])
}
