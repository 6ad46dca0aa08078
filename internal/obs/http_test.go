package obs

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerCloseIdempotent: Close runs the shutdown exactly once and every
// call — sequential or concurrent — returns the same nil result. Before the
// once-guard a second Close re-entered http.Server.Shutdown and surfaced a
// spurious net.ErrClosed from the already-closed listener.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	const closers = 8
	errs := make(chan error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- srv.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
}

// TestServerCloseDuringScrapes: /metrics scrapes racing shutdown neither
// panic nor wedge the grace period — every request either completes or fails
// with a connection error, and Close returns promptly. Run under -race by
// ci.sh (the name matches the Concurrent sweep).
func TestServerCloseDuringScrapesConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x.requests").Add(1)
	reg.Histogram("x.lat", []float64{1, 10, 100}).Observe(5)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 2 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(base + "/metrics")
				if err != nil {
					// Expected once the listener closes.
					continue
				}
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let scrapes overlap the shutdown
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close under scrape load: %v", err)
		}
	case <-time.After(shutdownTimeout + time.Second):
		t.Fatal("Close wedged past the grace period under scrape load")
	}
	close(stop)
	wg.Wait()
}

// TestServeMuxBoundsWholeRequests: besides the header timeout, the server
// bounds a whole request's read, a response's write and an idle keep-alive
// connection, so a client that stalls its body or never sends another
// request cannot hold a handler or a connection open indefinitely. A CPU
// profile still answers, because pprof extends the write deadline by the
// profile's length.
func TestServeMuxBoundsWholeRequests(t *testing.T) {
	srv, err := ServeMux("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("ServeMux: %v", err)
	}
	defer srv.Close()
	h := srv.srv
	if h.ReadHeaderTimeout <= 0 || h.ReadTimeout <= 0 || h.WriteTimeout <= 0 || h.IdleTimeout <= 0 {
		t.Fatalf("timeouts read-header %v, read %v, write %v, idle %v; want all set",
			h.ReadHeaderTimeout, h.ReadTimeout, h.WriteTimeout, h.IdleTimeout)
	}
	if code, _, body := fetch(t, "http://"+srv.Addr()+"/debug/pprof/profile?seconds=1", ""); code != http.StatusOK {
		t.Fatalf("CPU profile: status %d: %s", code, body)
	}
}

// TestServeMuxExtraRoutes: an application hook mounts its own routes on the
// obs server and the debug endpoints keep working beside them.
func TestServeMuxExtraRoutes(t *testing.T) {
	reg := NewRegistry()
	srv, err := ServeMux("127.0.0.1:0", reg, func(mux *http.ServeMux) {
		mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, "pong")
		})
	})
	if err != nil {
		t.Fatalf("ServeMux: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, _, body := fetch(t, base+"/v1/ping", "")
	if code != http.StatusOK || body != "pong" {
		t.Fatalf("/v1/ping: code=%d body=%q", code, body)
	}
	code, _, body = fetch(t, base+"/healthz", "")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz beside extra routes: code=%d body=%q", code, body)
	}
}
