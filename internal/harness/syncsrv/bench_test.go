package syncsrv

import (
	"context"
	"net/http"
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
	srv.Shutdown(context.Background()) //nolint:errcheck // benchmark teardown
}

// BenchmarkClientDraw times one 1,024-value Client.Draw over one
// keep-alive loopback connection: both codec ends, the hub and the
// transport. Allocations count both ends, since they share a process.
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
// same client and request against a Server whose route answers every
// request with a fixed /draw reply of a real lease's size, with no hub
// and no codec on either end.
func BenchmarkBareRoundTrip(b *testing.B) {
	net, err := core.L(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	hub := NewHub(net)
	if _, err := hub.Register("w0"); err != nil {
		b.Fatal(err)
	}
	runs, err := hub.Draw("w0", benchLease)
	if err != nil {
		b.Fatal(err)
	}
	body := appendDraw(nil, int64(net.Width()), runs)
	srv := NewServer(hub)
	srv.route = func(rs *response, _ *http.Request) {
		rs.set(http.StatusOK, appJSON, append(rs.body, body...))
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer stopLeaseServer(srv)
	cl := NewClient(srv.URL())
	if err := bareDraw(cl); err != nil { // opens the connection
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bareDraw(cl); err != nil {
			b.Fatal(err)
		}
	}
}

// bareDraw posts a benchLease-value /draw request the way Client.Draw
// does and leaves the reply undecoded.
func bareDraw(cl *Client) error {
	return cl.call("/draw?worker=", "w0", "&n=", benchLease, func(*reply) error { return nil })
}
