package syncsrv

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestClientReusesOneConnection: N sequential calls on one Client dial
// once.
func TestClientReusesOneConnection(t *testing.T) {
	const n = 50
	srv, lis := startServer(t, nil)
	cl := NewClient(srv.URL())
	if _, err := cl.Register("w1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if vals, err := cl.Draw("w1", 100); err != nil || len(vals) != 100 {
			t.Fatalf("draw %d: %d values, %v", i, len(vals), err)
		}
	}
	if gen, err := cl.Barrier("solo", 1); err != nil || gen != 0 {
		t.Fatalf("barrier: %d, %v", gen, err)
	}
	if got := lis.accepted.Load(); got != 1 {
		t.Errorf("%d connections for %d sequential calls", got, n+2)
	}
}

// TestClientBarrierBesideDraws: a Barrier long-poll holds its
// connection while Draws on the same Client run on a second one, and
// neither reads the other's reply.
func TestClientBarrierBesideDraws(t *testing.T) {
	const draws = 200
	srv, lis := startServer(t, nil)
	cl := NewClient(srv.URL())
	var wg sync.WaitGroup
	gens := make([]int64, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		gens[0], errs[0] = cl.Barrier("meet", 2)
	}()
	waitFor(t, "the first barrier arrival", func() bool {
		srv.hub.mu.Lock()
		defer srv.hub.mu.Unlock()
		return srv.hub.barriers["meet"] != nil
	})
	seen := map[int64]bool{}
	for i := 0; i < draws; i++ {
		vals, err := cl.Draw("w0", 7)
		if err != nil || len(vals) != 7 {
			t.Fatalf("draw %d beside a blocked barrier: %d values, %v", i, len(vals), err)
		}
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("draw %d: value %d leased twice", i, v)
			}
			seen[v] = true
		}
	}
	gens[1], errs[1] = cl.Barrier("meet", 2)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil || gens[0] != 0 || gens[1] != 0 {
		t.Fatalf("barrier arrivals: generations %v, errors %v", gens, errs)
	}
	if got := lis.accepted.Load(); got != 2 {
		t.Errorf("%d connections for a long-poll beside draws, want 2", got)
	}
}

// TestClientDropsClosingConnections: a connection whose reply says
// Connection: close, or whose reply runs past maxReply, is closed, and
// the next call dials a new one.
func TestClientDropsClosingConnections(t *testing.T) {
	for _, c := range []struct {
		name  string
		route func(rs *response, req *http.Request)
		want  string
	}{
		{"connection close", func(rs *response, _ *http.Request) {
			rs.set(http.StatusOK, appJSON, append(rs.body, `{"workers":1}`...))
			rs.close = true
		}, ""},
		{"oversized reply", func(rs *response, _ *http.Request) {
			rs.set(http.StatusOK, appJSON, append(rs.body, strings.Repeat(" ", maxReply+1)...))
		}, "exceeds " + strconv.Itoa(maxReply) + " bytes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			const n = 3
			srv, lis := startServer(t, c.route)
			cl := NewClient(srv.URL())
			for i := 0; i < n; i++ {
				_, err := cl.Register("w")
				if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
					t.Fatalf("call %d: %v, want an error naming %q", i, err, c.want)
				}
			}
			if got := lis.accepted.Load(); got != n {
				t.Errorf("%d connections for %d calls whose replies end the connection", got, n)
			}
		})
	}
}

// TestClientErrors: a base that is not http://host[:port] fails every
// call, and a refused dial names the request.
func TestClientErrors(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:1", "127.0.0.1:1", "http://", ":bad"} {
		if _, err := NewClient(base).Register("w"); err == nil || !strings.Contains(err.Error(), "syncsrv: client for") {
			t.Errorf("base %q: %v, want an error naming the base", base, err)
		}
	}
	srv, _ := startServer(t, nil)
	addr := srv.URL()
	cl := NewClient(addr + "/")
	if _, err := cl.Register("w1"); err != nil {
		t.Fatalf("base with a trailing slash: %v", err)
	}
	if _, err := NewClient(addr + "/prefix").Register("w2"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("base with a path prefix: %v, want the server's 404 for /prefix/register", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := NewClient(addr).Draw("w0", 1)
	var opErr interface{ Timeout() bool }
	if err == nil || !strings.Contains(err.Error(), "syncsrv: POST /draw?worker=w0&n=1: ") || !errors.As(err, &opErr) {
		t.Errorf("draw from a stopped server: %v, want a dial error naming the request", err)
	}
}
