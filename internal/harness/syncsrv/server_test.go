package syncsrv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/core"
)

// startServer serves a fresh hub with worker w0 registered on a
// loopback listener that counts the connections it accepts, and shuts
// it down when the test ends. A non-nil route replaces the hub's.
func startServer(t *testing.T, route func(*response, *http.Request)) (*Server, *countingListener) {
	t.Helper()
	hub := NewHub(testNet(t))
	if _, err := hub.Register("w0"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(hub)
	if route != nil {
		srv.route = route
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: lis}
	if err := srv.serve(cl); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, cl
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// rawConn is a test client that writes requests as raw bytes and reads
// replies with http.ReadResponse.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, srv *Server) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", srv.lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a test bound on a hang
	return &rawConn{t: t, c: c, r: bufio.NewReader(c)}
}

// do writes req and reads one reply and its body.
func (rc *rawConn) do(req string) (*http.Response, string) {
	rc.t.Helper()
	if _, err := io.WriteString(rc.c, req); err != nil {
		rc.t.Fatal(err)
	}
	return rc.read()
}

func (rc *rawConn) read() (*http.Response, string) {
	rc.t.Helper()
	resp, err := http.ReadResponse(rc.r, nil)
	if err != nil {
		rc.t.Fatalf("read reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rc.t.Fatalf("read reply body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server has closed the connection: the
// next read finds the end of the stream and no stray byte.
func (rc *rawConn) closed() bool {
	rc.t.Helper()
	b, err := rc.r.ReadByte()
	if err == nil {
		rc.t.Errorf("stray byte %q after the reply", b)
	}
	return err == io.EOF
}

func post(path string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
}

// TestServerKeepsConnectionOpen: N sequential requests on one
// connection each get a reply that leaves it open, written as raw bytes
// and sent by net/http's client.
func TestServerKeepsConnectionOpen(t *testing.T) {
	const n = 20
	srv, lis := startServer(t, nil)
	rc := dialRaw(t, srv)
	for i := 0; i < n; i++ {
		resp, body := rc.do(post("/draw?worker=w0&n=3"))
		if resp.StatusCode != http.StatusOK || resp.Close || resp.Header.Get("Content-Type") != appJSON {
			t.Fatalf("request %d: %s, close %v, type %q: %s", i, resp.Status, resp.Close, resp.Header.Get("Content-Type"), body)
		}
		if l, err := scanDraw([]byte(body), nil); err != nil || l.check(3) != nil {
			t.Fatalf("request %d: reply %q: %v", i, body, err)
		}
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for i := 0; i < n; i++ {
		resp, err := hc.Post(srv.URL()+"/register?worker=h"+strconv.Itoa(i), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != `{"workers":`+strconv.Itoa(i+2)+"}\n" {
			t.Fatalf("net/http request %d: %s %q %v", i, resp.Status, body, err)
		}
	}
	if got := lis.accepted.Load(); got != 2 {
		t.Errorf("%d connections for two clients of %d requests each", got, n)
	}
}

// TestServerClosesWhenAsked: a request with Connection: close, an
// HTTP/1.0 request (with or without keep-alive) and a HEAD request each
// get a reply that says Connection: close, and then the connection
// ends.
func TestServerClosesWhenAsked(t *testing.T) {
	srv, _ := startServer(t, nil)
	for _, req := range []string{
		"POST /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		rc := dialRaw(t, srv)
		resp, body := rc.do(req)
		head := strings.HasPrefix(req, "HEAD")
		if resp.StatusCode != http.StatusOK || !resp.Close || (body == "ok\n") == head {
			t.Errorf("%q: %s, close %v, body %q", req, resp.Status, resp.Close, body)
		}
		if !rc.closed() {
			t.Errorf("%q: connection still open after the reply", req)
		}
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL()+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Close = true
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Errorf("net/http request with Close: %s, close %v", resp.Status, resp.Close)
	}
}

// TestServerDrainsRequestBodies: no endpoint reads a body, but a small
// one, sized by Content-Length or chunked, is consumed, so the next
// request on the connection still parses.
func TestServerDrainsRequestBodies(t *testing.T) {
	srv, _ := startServer(t, nil)
	rc := dialRaw(t, srv)
	for _, req := range []string{
		"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
		"POST /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;ext=1\r\nde\r\n0\r\nTrailer: t\r\n\r\n",
		"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(maxBody) + "\r\n\r\n" + strings.Repeat("b", maxBody),
		post("/healthz"),
	} {
		if resp, body := rc.do(req); resp.StatusCode != http.StatusOK || resp.Close || body != "ok\n" {
			t.Fatalf("%.60q: %s, close %v, body %q", req, resp.Status, resp.Close, body)
		}
	}
	resp, err := http.Post(srv.URL()+"/healthz", "text/plain", strings.NewReader("a body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("net/http POST with a body: %s", resp.Status)
	}
}

// TestServerRejectsBadRequests: an oversized head (431), an oversized
// body by Content-Length or chunked (413) and a request that does not
// parse (400) are answered with http.Error's body, and the connection
// then closes.
func TestServerRejectsBadRequests(t *testing.T) {
	srv, _ := startServer(t, nil)
	for _, c := range []struct {
		name, req string
		code      int
	}{
		{"long head", "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("p", maxHead) + "\r\n\r\n", http.StatusRequestHeaderFieldsTooLarge},
		{"long body", "POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(maxBody+1) + "\r\n\r\n" + strings.Repeat("b", maxBody+1), http.StatusRequestEntityTooLarge},
		{"long chunked body", "POST /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" + strings.Repeat("400\r\n"+strings.Repeat("c", 0x400)+"\r\n", 5) + "0\r\n\r\n", http.StatusRequestEntityTooLarge},
		{"bad chunk", "POST /healthz HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", http.StatusBadRequest},
		{"bad request line", "NOT HTTP\r\n\r\n", http.StatusBadRequest},
		{"bad header", "GET /healthz HTTP/1.1\r\nno colon\r\n\r\n", http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := dialRaw(t, srv)
			resp, body := rc.do(c.req + post("/healthz"))
			want := strconv.Itoa(c.code) + " " + http.StatusText(c.code) + "\n"
			if resp.StatusCode != c.code || !resp.Close || body != want || resp.Header.Get("Content-Type") != textPlain {
				t.Errorf("%s, close %v, type %q, body %q; want %d, close, %q", resp.Status, resp.Close, resp.Header.Get("Content-Type"), body, c.code, want)
			}
			if !rc.closed() {
				t.Error("connection still open after the reply")
			}
		})
	}
}

// TestServerNotFoundAndHealthz: an unknown path gets ServeMux's 404
// and /healthz answers ok, to raw bytes and to net/http's client, on
// any method.
func TestServerNotFoundAndHealthz(t *testing.T) {
	srv, _ := startServer(t, nil)
	rc := dialRaw(t, srv)
	for _, c := range []struct {
		path string
		code int
		body string
	}{
		{"/healthz", http.StatusOK, "ok\n"},
		{"/nope", http.StatusNotFound, "404 page not found\n"},
		{"/draw/", http.StatusNotFound, "404 page not found\n"},
	} {
		resp, body := rc.do(post(c.path))
		if resp.StatusCode != c.code || body != c.body || resp.Header.Get("Content-Type") != textPlain {
			t.Errorf("raw POST %s: %s %q, type %q", c.path, resp.Status, body, resp.Header.Get("Content-Type"))
		}
		hresp, err := http.Get(srv.URL() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		hbody, err := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if err != nil || hresp.StatusCode != c.code || string(hbody) != c.body {
			t.Errorf("net/http GET %s: %s %q %v", c.path, hresp.Status, hbody, err)
		}
	}
}

// TestServerShutdown: Shutdown closes idle connections, answers a
// blocked Barrier with 503 and returns once no server goroutine is
// left.
func TestServerShutdown(t *testing.T) {
	hub := NewHub(testNet(t))
	srv := NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	idle := dialRaw(t, srv)
	if resp, _ := idle.do(post("/healthz")); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	cl := NewClient(srv.URL())
	barErr := make(chan error, 1)
	go func() {
		_, err := cl.Barrier("never", 2)
		barErr <- err
	}()
	waitFor(t, "the barrier to block", func() bool {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		return hub.barriers["never"] != nil
	})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-barErr; err == nil || !strings.Contains(err.Error(), "503 Service Unavailable") {
		t.Errorf("blocked barrier after Shutdown: %v, want a 503", err)
	}
	if !idle.closed() {
		t.Error("idle connection still open after Shutdown")
	}
	noServerGoroutines(t)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestShutdownWaitsForBusyConnection: Shutdown waits for a handler
// that is answering, returns ctx's error if the handler outlasts ctx,
// and lets the handler's reply through once it ends.
func TestShutdownWaitsForBusyConnection(t *testing.T) {
	srv := NewServer(NewHub(testNet(t)))
	entered, release := make(chan struct{}), make(chan struct{})
	srv.route = func(rs *response, _ *http.Request) {
		close(entered)
		<-release
		rs.set(http.StatusOK, textPlain, append(rs.body, "late\n"...))
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, srv)
	if _, err := io.WriteString(rc.c, post("/stuck")); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a stuck handler: %v, want %v", err, context.DeadlineExceeded)
	}
	close(release)
	if resp, body := rc.read(); resp.StatusCode != http.StatusOK || body != "late\n" {
		t.Errorf("reply of the stuck handler: %s %q", resp.Status, body)
	}
	if !rc.closed() {
		t.Error("connection still open after its reply during Shutdown")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	noServerGoroutines(t)
}

// waitFor polls cond, which watches state no event announces.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// noServerGoroutines fails unless every goroutine running Server code
// ends soon: Shutdown returns when the last one leaves, just before it
// exits.
func noServerGoroutines(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "server goroutines to exit", func() bool {
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "syncsrv.(*Server)")
	})
}

// FuzzServerRequest feeds arbitrary bytes to one connection's loop over
// net.Pipe. Every reply must parse with http.ReadResponse, body and
// all, until the server closes the connection, and the loop must end
// once its input does, without a panic. The hub is closed, so /barrier
// answers 503 instead of waiting for parties the input cannot supply.
func FuzzServerRequest(f *testing.F) {
	for _, seed := range []string{
		post("/draw?worker=w0&n=3") + post("/healthz") + post("/register?worker=w1"),
		"GET /healthz HTTP/1.0\r\n\r\n" + post("/healthz"),
		"HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /barrier?state=s&n=2 HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n" + post("/draw?n=x"),
		"POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc" + post("/healthz"),
		"POST /healthz HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
		"NOT HTTP\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nX: " + strings.Repeat("x", 64) + "\r\n",
	} {
		f.Add([]byte(seed))
	}
	nw, err := core.L(2, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		hub := NewHub(nw)
		hub.Close()
		srv := NewServer(hub)
		client, server := net.Pipe()
		defer client.Close()
		client.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a test bound on a hang
		srv.conns[server] = false
		srv.live++
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(&inputConn{Conn: server, in: bytes.NewReader(in)})
		}()
		br := bufio.NewReader(client)
		for {
			// ReadResponse reads the end of the stream as a cut reply.
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reply does not parse: %v", err)
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("%s reply body: %v", resp.Status, err)
			}
			if resp.Close {
				if _, err := br.ReadByte(); err != io.EOF {
					t.Fatalf("%s reply with Connection: close, then %v instead of the end", resp.Status, err)
				}
				break
			}
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the connection loop outlived its input")
		}
	})
}

// inputConn is a connection whose reads come from in and whose writes
// go to the embedded net.Pipe end.
type inputConn struct {
	net.Conn
	in *bytes.Reader
}

func (c *inputConn) Read(p []byte) (int, error) { return c.in.Read(p) }
