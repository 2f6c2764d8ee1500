package syncsrv

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server exposes a Hub over HTTP/1.1. Every endpoint answers JSON;
// /barrier holds the request open until the state releases, so workers
// long-poll instead of spinning.
//
//	POST /register?worker=W   -> {"workers":K}
//	POST /barrier?state=S&n=N -> blocks; {"generation":G}
//	POST /draw?worker=W&n=K   -> {"stride":S,"runs":[[start,n],...]}, 1 <= K <= MaxDraw
//	GET  /healthz             -> ok
//
// Errors answer 409 for a duplicate worker id, 503 once the hub is
// closed, 404 for an unknown path and 400 for any other bad request,
// each with http.Error's plain-text body. A /draw reply carries the
// lease as at most S runs, S the network's width: run [start,n] stands
// for the n values start, start+S, …, start+(n-1)·S, and the runs' n
// sum to K.
//
// There is no http.Server: it hands every bodiless request to a
// background-read goroutine and waits for that goroutine again before
// the next request, which cost more than the rest of a lease. Server
// runs one accept loop and one goroutine per connection, which parses
// a request with http.ReadRequest, answers it, and reads the next. The
// request head is bounded as http.Server bounds it (431 past
// http.DefaultMaxHeaderBytes plus 4 KiB), a request body is drained up
// to maxBody bytes (413 past that), and a request that does not parse
// gets 400; these replies, a request asking to close, any HTTP/1.0
// request and a HEAD request close the connection after the reply.
//
// Each reply (status line, Content-Type, Content-Length, Connection:
// close when closing, and the body) is appended into the connection's
// buffer and sent in one Write. Handlers append a JSON body with
// strconv and read the query from the raw URL without building
// url.Values. Client reads at most maxReply bytes of any reply, error
// bodies included, and scans it without reflection: whitespace and key
// order are free and a missing key reads as zero (a /draw reply without
// a stride fails as stride 0), while unknown or repeated keys, numbers
// that are not canonical int64 integers, more than MaxDraw runs and
// trailing bytes are errors. A /draw reply must then pass the lease
// check: stride >= 1, every run non-empty, starting at >= 0 and not
// overflowing, and the lengths summing to K.
type Server struct {
	hub *Hub
	// route answers one request; NewServer sets it to serveHub.
	route func(rs *response, req *http.Request)

	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]bool // open connections, true while answering a request
	live    int               // running accept loop and connection goroutines
	closing bool
	drained chan struct{} // closed once closing with live at 0
}

// Request limits: maxHead bounds a request line and header as
// http.Server does, and maxBody the body drained from a request, which
// no endpoint reads.
const (
	maxHead = http.DefaultMaxHeaderBytes + 4096
	maxBody = 4 << 10
)

// NewServer wraps the hub. Call Start to begin serving.
func NewServer(hub *Hub) *Server {
	s := &Server{hub: hub, conns: map[net.Conn]bool{}, drained: make(chan struct{})}
	s.route = s.serveHub
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves in background goroutines until Shutdown.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(lis)
}

// serve accepts connections from lis in a background goroutine.
func (s *Server) serve(lis net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		lis.Close()
		return ErrClosed
	}
	s.lis = lis
	s.live++
	go s.accept(lis)
	return nil
}

// URL returns the base URL clients should use.
func (s *Server) URL() string { return "http://" + s.lis.Addr().String() }

// Shutdown closes the hub, which releases blocked barrier handlers,
// then the listener and every idle connection. It waits until the busy
// connections have sent their replies and closed, or until ctx is
// done, whose error it then returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hub.Close()
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		if s.lis != nil {
			s.lis.Close()
		}
		for c, busy := range s.conns {
			if !busy {
				c.Close()
			}
		}
		s.drain()
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain closes s.drained once the server is closing and no goroutine
// of it runs. s.mu must be held.
func (s *Server) drain() {
	if s.closing && s.live == 0 {
		close(s.drained)
	}
}

// leave ends one accept loop or connection goroutine, forgetting c if
// it is a connection.
func (s *Server) leave(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c != nil {
		delete(s.conns, c)
	}
	s.live--
	s.drain()
}

// accept serves each connection lis accepts on its own goroutine until
// lis is closed, retrying temporary errors with http.Server's back-off.
func (s *Server) accept(lis net.Listener) {
	defer s.leave(nil)
	var delay time.Duration
	for {
		c, err := lis.Accept()
		if err != nil {
			var ne net.Error
			//lint:ignore SA1019 http.Server retries the errors Temporary reports, such as EMFILE
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return
		}
		delay = 0
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = false
		s.live++
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// setBusy marks c as answering a request or as idle. It reports false
// once the server is closing, when c is to close instead.
func (s *Server) setBusy(c net.Conn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[c] = busy
	return !s.closing
}

// serveConn answers the requests on c one at a time until the peer
// closes it, a reply closes it, or the server shuts down.
func (s *Server) serveConn(c net.Conn) {
	defer s.leave(c)
	defer c.Close()
	lr := &io.LimitedReader{R: c}
	br := bufio.NewReader(lr)
	var rs response
	for {
		lr.N = maxHead
		// c is idle, and Shutdown may close it, until the next
		// request's first byte arrives.
		if _, err := br.Peek(1); err != nil || !s.setBusy(c, true) {
			return
		}
		rs.reset()
		req, err := http.ReadRequest(br)
		if err != nil {
			code := http.StatusBadRequest
			if lr.N <= 0 {
				code = http.StatusRequestHeaderFieldsTooLarge
			}
			rs.fail(c, code)
			return
		}
		lr.N = math.MaxInt64 // maxBody bounds the body, and the chunked reader its framing
		if req.Body != http.NoBody {
			n, err := io.Copy(io.Discard, io.LimitReader(req.Body, maxBody+1))
			if err != nil {
				rs.fail(c, http.StatusBadRequest)
				return
			}
			if n > maxBody {
				rs.fail(c, http.StatusRequestEntityTooLarge)
				return
			}
		}
		s.route(&rs, req)
		rs.head = req.Method == http.MethodHead
		rs.close = rs.close || req.Close || !req.ProtoAtLeast(1, 1) || rs.head
		if _, err := c.Write(rs.bytes()); err != nil || rs.close || !s.setBusy(c, false) {
			return
		}
	}
}

// serveHub routes a request to the hub's endpoints.
func (s *Server) serveHub(rs *response, req *http.Request) {
	switch req.URL.Path {
	case "/register":
		s.handleRegister(rs, req.URL.RawQuery)
	case "/barrier":
		s.handleBarrier(rs, req.URL.RawQuery)
	case "/draw":
		s.handleDraw(rs, req.URL.RawQuery)
	case "/healthz":
		rs.set(http.StatusOK, textPlain, append(rs.body, "ok\n"...))
	default:
		rs.error("404 page not found", http.StatusNotFound)
	}
}

func (s *Server) handleRegister(rs *response, query string) {
	n, err := s.hub.Register(queryValue(query, "worker"))
	if err != nil {
		rs.hubError(err)
		return
	}
	rs.set(http.StatusOK, appJSON, appendField(rs.body, "workers", int64(n)))
}

func (s *Server) handleBarrier(rs *response, query string) {
	state := queryValue(query, "state")
	n, err := strconv.Atoi(queryValue(query, "n"))
	if state == "" || err != nil {
		rs.error("syncsrv: barrier needs state and integer n", http.StatusBadRequest)
		return
	}
	gen, err := s.hub.Barrier(state, n)
	if err != nil {
		rs.hubError(err)
		return
	}
	rs.set(http.StatusOK, appJSON, appendField(rs.body, "generation", gen))
}

func (s *Server) handleDraw(rs *response, query string) {
	n, err := strconv.Atoi(queryValue(query, "n"))
	if err != nil {
		rs.error("syncsrv: draw needs integer n", http.StatusBadRequest)
		return
	}
	runs, err := s.hub.Draw(queryValue(query, "worker"), n)
	if err != nil {
		rs.hubError(err)
		return
	}
	rs.set(http.StatusOK, appJSON, appendDraw(rs.body, int64(s.hub.net.Width()), runs))
}

// Content types of the replies.
const (
	appJSON   = "application/json"
	textPlain = "text/plain; charset=utf-8"
)

// response is one reply as a connection builds it. Its buffers live as
// long as the connection.
type response struct {
	code  int
	ctype string
	body  []byte
	head  bool // answering HEAD: no body and no Content-Length
	close bool // close the connection after the reply; a route may set it
	out   []byte
}

func (rs *response) reset() {
	rs.code, rs.ctype, rs.body, rs.head, rs.close = 0, "", rs.body[:0], false, false
}

func (rs *response) set(code int, ctype string, body []byte) {
	rs.code, rs.ctype, rs.body = code, ctype, body
}

// error sets the reply http.Error would write.
func (rs *response) error(msg string, code int) {
	rs.set(code, textPlain, append(append(rs.body[:0], msg...), '\n'))
}

// hubError answers err with the status its sentinel maps to.
func (rs *response) hubError(err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDuplicateWorker):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	rs.error(err.Error(), code)
}

// bytes appends the whole reply into rs.out and returns it.
func (rs *response) bytes() []byte {
	b := append(rs.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(rs.code), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(rs.code)...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, rs.ctype...)
	if rs.close {
		b = append(b, "\r\nConnection: close"...)
	}
	if !rs.head {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(rs.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	if !rs.head {
		b = append(b, rs.body...)
	}
	rs.out = b
	return b
}

// fail answers a request that could not be read with code, before
// the caller closes c. The request may have left input unread, and
// closing a socket with unread input resets it, which can discard the
// reply before the peer reads it. So fail shuts c's write side and
// discards input until the peer closes, as RFC 9112 advises, for at
// most the half second http.Server waits.
func (rs *response) fail(c net.Conn, code int) {
	rs.error(strconv.Itoa(code)+" "+http.StatusText(code), code)
	rs.close = true
	if _, err := c.Write(rs.bytes()); err != nil {
		return
	}
	if cw, ok := c.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond)) //nolint:errcheck // a failed deadline only ends the discard sooner
		io.Copy(io.Discard, io.LimitReader(c, 256<<10))           //nolint:errcheck // discarding until the peer closes
	}
}

// queryValue returns the first value of key in the raw query, as
// url.Values.Get does, without building the map: pairs holding a
// semicolon or a bad escape are skipped, as url.ParseQuery skips them.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
