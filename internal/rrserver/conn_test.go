package rrserver

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"optrr/internal/rr"
	"optrr/internal/rrclient"
)

// TestClientKeepsOneConnection: an SDK client on a one-connection transport
// fetches the scheme and posts five batches over a single connection, for a
// dense and for a sketch deployment. A body closed before its end costs the
// connection: net/http drops it, and the next request dials again. The
// sketch's scheme body is the one at risk: at 1.4 MB it is sent chunked
// unless the server declares its length, and a reader that stops at the end
// of the JSON value never reads the chunked terminator.
func TestClientKeepsOneConnection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme rr.Scheme
	}{
		{"dense", mustWarner(t, 5, 0.75)},
		{"sketch", mustCMS(t, 100000, 16, 256, 5, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Scheme: tc.scheme, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			mux := http.NewServeMux()
			srv.Register(mux)
			var conns atomic.Int32
			hs := httptest.NewUnstartedServer(mux)
			hs.Config.ConnState = func(_ net.Conn, state http.ConnState) {
				if state == http.StateNew {
					conns.Add(1)
				}
			}
			hs.Start()
			defer hs.Close()
			transport := &http.Transport{MaxConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			client := rrclient.New(hs.URL, rrclient.WithHTTPClient(&http.Client{Transport: transport}), rrclient.WithSeed(1))
			ctx := context.Background()
			report, err := client.Disguise(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := client.ReportBatch(ctx, []int{report, report}); err != nil {
					t.Fatal(err)
				}
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("%d connections for one scheme fetch and five batches, want 1", n)
			}
			if srv.Count() != 10 {
				t.Fatalf("server counted %d reports, want 10", srv.Count())
			}
		})
	}
}
