package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Server exposes the debug endpoints of a running process:
//
//	/debug/vars    expvar (all published variables, incl. registries)
//	/debug/pprof/  net/http/pprof profiles (cpu, heap, goroutine, ...)
//	/metrics       the registry passed to Serve: JSON by default, the
//	               Prometheus text exposition under content negotiation
//	/healthz       liveness probe: 200 "ok" while the server runs
//
// It deliberately uses its own mux, not http.DefaultServeMux, so importing
// this package never changes the behavior of an application's own server.
type Server struct {
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	closeErr  error
}

// shutdownTimeout bounds how long Close waits for in-flight scrapes before
// forcing connections shut. Scrape handlers respond in milliseconds; the
// grace period only matters for a pprof profile in progress.
const shutdownTimeout = 5 * time.Second

// The server's per-connection deadlines, so that no client holds a handler
// or a connection open indefinitely. A request's headers must arrive within
// readHeaderTimeout and the whole request, body included, within
// readTimeout, the SDK's own request timeout. A response must be written
// within writeTimeout; pprof's profile and trace handlers extend that
// deadline by the length they are asked to record, so a default 30-s CPU
// profile still completes. An idle keep-alive connection is closed after
// idleTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve starts a debug server on addr ("host:port"; ":0" picks a free port).
// reg may be nil; when non-nil it is additionally served at /metrics. The
// server runs until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeMux(addr, reg, nil)
}

// ServeMux is Serve with an application hook: when register is non-nil it is
// called with the server's mux before the listener starts accepting, so a
// service (e.g. cmd/rrserver) can mount its own API routes next to the debug
// endpoints and inherit the listener, the graceful Close, /healthz and the
// /metrics exposition instead of running a second HTTP server.
func ServeMux(addr string, reg *Registry, register func(mux *http.ServeMux)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		mux.HandleFunc("/metrics", metricsHandler(reg))
	}
	if register != nil {
		register(mux)
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	s := &Server{ln: ln, srv: srv}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return s, nil
}

// metricsHandler serves the registry with content negotiation. The JSON
// document of Registry.String stays the default (existing consumers see
// byte-identical output); the Prometheus text exposition is selected by a
// scraper's Accept header (which names text/plain or an OpenMetrics type
// before any JSON type) or explicitly with ?format=prometheus. ?format=json
// forces JSON regardless of Accept.
func metricsHandler(reg *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		format := r.URL.Query().Get("format")
		prom := format == "prometheus"
		if format == "" {
			accept := r.Header.Get("Accept")
			prom = strings.Contains(accept, "text/plain") ||
				strings.Contains(accept, "application/openmetrics-text")
		}
		if prom {
			w.Header().Set("Content-Type", PrometheusContentType)
			reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, reg.String())
	}
}

// Addr returns the bound address, e.g. "127.0.0.1:43561".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully stops the server: the listener closes immediately (the
// port is released, /healthz goes unreachable) and in-flight requests get
// shutdownTimeout to finish before their connections are forced shut.
//
// Close is idempotent: the shutdown runs once and every call returns the
// same result. Without the guard a second Close re-entered
// http.Server.Shutdown, which re-closes the (already closed) listener and
// surfaces a spurious net.ErrClosed — exactly the kind of shutdown-path
// noise a supervisor restarting rrserver turns into a false alert.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		// Shutdown only closes listeners the serve goroutine has registered;
		// if Close races server startup the listener may not be tracked yet,
		// so close it directly too (idempotent — double close just errors).
		s.ln.Close() //nolint:errcheck
		if err == context.DeadlineExceeded {
			// Grace period exhausted: drop whatever is still running.
			err = s.srv.Close()
		}
		s.closeErr = err
	})
	return s.closeErr
}
