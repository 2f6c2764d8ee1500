package syncsrv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"countnet/internal/core"
)

// Lease shape of the benchmarks: lease_bulk's 1,024-value lease on
// L(4,4), with the hub replaced every leasesPerHub leases so its issue
// log stays small.
const (
	benchLease   = 1024
	leasesPerHub = 512
)

// leaseServer serves a fresh L(4,4) hub with worker w0 registered and
// returns a client whose keep-alive connection is already open.
func leaseServer(b *testing.B) (*Server, *Client) {
	b.Helper()
	net, err := core.L(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(NewHub(net))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	cl := NewClient(srv.URL())
	if _, err := cl.Register("w0"); err != nil {
		b.Fatal(err)
	}
	return srv, cl
}

func stopLeaseServer(srv *Server) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	srv.Shutdown(context.Background()) //nolint:errcheck // benchmark teardown
}

// BenchmarkClientDraw times one 1,024-value Client.Draw over one
// keep-alive loopback connection: both codec ends, the hub and
// net/http. Allocations count both ends, since they share a process.
func BenchmarkClientDraw(b *testing.B) {
	var srv *Server
	var cl *Client
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%leasesPerHub == 0 {
			b.StopTimer()
			if srv != nil {
				stopLeaseServer(srv)
			}
			srv, cl = leaseServer(b)
			b.StartTimer()
		}
		vals, err := cl.Draw("w0", benchLease)
		if err != nil || len(vals) != benchLease {
			b.Fatalf("draw: %d values, %v", len(vals), err)
		}
	}
	b.StopTimer()
	stopLeaseServer(srv)
}

// BenchmarkBareRoundTrip is the floor under BenchmarkClientDraw: the
// same client and request against a handler that writes a fixed body
// of a real reply's size, with no hub and no codec on either end.
func BenchmarkBareRoundTrip(b *testing.B) {
	srv, cl := leaseServer(b)
	body, err := bareDraw(cl)
	stopLeaseServer(srv)
	if err != nil {
		b.Fatal(err)
	}
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck // best effort to a dead client
	}))
	defer bare.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	cl = NewClient(bare.URL)
	if _, err := bareDraw(cl); err != nil { // opens the connection
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bareDraw(cl); err != nil {
			b.Fatal(err)
		}
	}
}

// bareDraw posts a benchLease-value /draw request the way Client.Draw does
// and returns the reply body undecoded.
func bareDraw(cl *Client) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, cl.base+"/draw?worker=w0&n="+strconv.Itoa(benchLease), nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, body)
	}
	return body, err
}
