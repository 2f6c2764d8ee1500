package syncsrv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"countnet/internal/counter"
)

// Client is the worker-side view of a sync Server. The zero client is
// not usable; build one with NewClient. Methods are safe for
// concurrent use.
//
// There is no http.Client: its Transport moves every request through
// a write goroutine and a read goroutine, which cost more than the
// rest of a lease. Client keeps a stack of idle keep-alive connections;
// a call takes one or dials a new one, writes its bodiless POST in one
// Write, and reads the reply with http.ReadResponse on the caller's
// goroutine. A connection goes back on the stack only if its reply was
// read to the end within maxReply bytes and did not ask to close, so
// the stack holds at most as many connections as calls ever ran at
// once; a Barrier long-poll beside Draws holds two. A call whose
// connection fails is not retried, as net/http does not retry a POST:
// the server may have issued the lease. Nothing watches an idle
// connection, so one the server closed fails the call that next takes
// it. Environment proxies do not apply, and only plain http:// bases
// are served.
type Client struct {
	addr   string // host:port to dial
	host   string // the Host header
	prefix string // the base URL's path, before each endpoint
	err    error  // why base is unusable, returned by every call

	mu   sync.Mutex
	idle []*clientConn
}

// clientConn is one keep-alive connection and its read buffer.
type clientConn struct {
	net.Conn
	br *bufio.Reader
}

// NewClient targets the server at base (e.g. "http://127.0.0.1:8123").
// Barrier calls block server-side, so calls have no timeout; bound
// waits with the phase plan instead.
func NewClient(base string) *Client {
	u, err := url.Parse(strings.TrimRight(base, "/"))
	if err == nil && (u.Scheme != "http" || u.Host == "") {
		err = errors.New("want an http://host[:port] base")
	}
	if err != nil {
		return &Client{err: fmt.Errorf("syncsrv: client for %q: %w", base, err)}
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &Client{addr: addr, host: u.Host, prefix: u.EscapedPath()}
}

// dial opens a connection to the server. It dials through
// http.DefaultTransport's DialContext when that is an *http.Transport,
// as http.Client did: a process that shapes its connections there
// (a dial timeout and TCP keep-alive by default; a benchmark counting
// dials or closing with a reset) shapes the Client's too. Otherwise it
// uses a plain net.Dialer.
func (c *Client) dial() (*clientConn, error) {
	dial := (&net.Dialer{}).DialContext
	if tr, ok := http.DefaultTransport.(*http.Transport); ok && tr.DialContext != nil {
		dial = tr.DialContext
	}
	conn, err := dial(context.Background(), "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{Conn: conn, br: bufio.NewReader(conn)}, nil
}

// get takes the most recently idled connection, or dials one.
func (c *Client) get() (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	return c.dial()
}

func (c *Client) put(cc *clientConn) {
	c.mu.Lock()
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
}

// Register announces the worker id and returns the number of workers
// registered so far.
func (c *Client) Register(worker string) (int, error) {
	var n int64
	err := c.call("/register?worker=", worker, "", 0, func(r *reply) (err error) {
		n, err = scanField(r.body, workersKeys)
		return err
	})
	return int(n), err
}

// Barrier arrives at the named state and blocks until all n parties
// have arrived, returning the caller's generation.
func (c *Client) Barrier(state string, n int) (int64, error) {
	var gen int64
	err := c.call("/barrier?state=", state, "&n=", n, func(r *reply) (err error) {
		gen, err = scanField(r.body, generationKeys)
		return err
	})
	return gen, err
}

// Draw leases n fresh counter values for the worker. The server ships
// the lease as strided runs; Draw scans them into a pooled buffer and
// checks them against the request before expanding them, so a
// malformed reply is an error, not an allocation of whatever size it
// names.
func (c *Client) Draw(worker string, n int) ([]int64, error) {
	var vals []int64
	err := c.call("/draw?worker=", worker, "&n=", n, func(r *reply) error {
		l, err := scanDraw(r.body, r.runs)
		r.runs = l.runs // keep a grown buffer for the pool
		if err != nil {
			return err
		}
		if err := l.check(n); err != nil {
			return err
		}
		vals = make([]int64, 0, n)
		for _, run := range l.runs {
			vals = run.AppendValues(vals, l.stride)
		}
		return nil
	})
	return vals, err
}

// lease is a scanned /draw reply: runs of one stride.
type lease struct {
	stride int64
	runs   []counter.Run
}

// check validates a /draw reply for a lease of n values: at most
// MaxDraw runs of stride >= 1, each non-empty, starting at a value
// >= 0 and not overflowing, whose lengths sum to exactly n.
func (l *lease) check(n int) error {
	if l.stride < 1 {
		return fmt.Errorf("syncsrv: draw reply with stride %d", l.stride)
	}
	if len(l.runs) > MaxDraw {
		return fmt.Errorf("syncsrv: draw reply with %d runs (max %d)", len(l.runs), MaxDraw)
	}
	left := int64(n)
	for _, r := range l.runs {
		if r.Start < 0 || r.N < 1 || r.N > left {
			return fmt.Errorf("syncsrv: draw reply run [%d,%d] with %d of %d values left", r.Start, r.N, left, n)
		}
		if (math.MaxInt64-r.Start)/l.stride < r.N-1 {
			return fmt.Errorf("syncsrv: draw reply run [%d,%d] overflows at stride %d", r.Start, r.N, l.stride)
		}
		left -= r.N
	}
	if left != 0 {
		return fmt.Errorf("syncsrv: draw reply holds %d values, want %d", int64(n)-left, n)
	}
	return nil
}

// call performs one round trip: a bodiless POST of path, then value
// query-escaped, then nKey and n unless nKey is empty. It reads the
// reply into a pooled buffer of at most maxReply bytes and hands it to
// parse; non-2xx replies become errors carrying the server's message.
func (c *Client) call(path, value, nKey string, n int, parse func(*reply) error) error {
	if c.err != nil {
		return c.err
	}
	r := replies.Get().(*reply)
	defer releaseReply(r)
	b := append(r.req[:0], "POST "...)
	b = append(b, c.prefix...)
	start := len(b)
	b = append(b, path...)
	b = append(b, url.QueryEscape(value)...)
	if nKey != "" {
		b = append(b, nKey...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	end := len(b)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	r.req = append(b, "\r\nContent-Length: 0\r\n\r\n"...)
	resp, err := c.roundTrip(r)
	if err != nil {
		return fmt.Errorf("syncsrv: POST %s: %w", r.req[start:end], err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("syncsrv: POST %s: %s: %s", r.req[start:end], resp.Status, strings.TrimSpace(string(r.body)))
	}
	return parse(r)
}

// roundTrip writes the request in r.req on an idle or a new connection
// and reads the reply's body into r.body. The connection goes back on
// the idle stack only if the body was read to its end and the reply
// did not ask to close; otherwise it is closed.
func (c *Client) roundTrip(r *reply) (*http.Response, error) {
	cc, err := c.get()
	if err != nil {
		return nil, err
	}
	var resp *http.Response
	if _, err = cc.Write(r.req); err == nil {
		resp, err = http.ReadResponse(cc.br, nil)
	}
	if err == nil {
		r.body, err = readReply(resp.Body, r.body[:0])
	}
	if err != nil || resp.Close {
		cc.Close()
	} else {
		c.put(cc)
	}
	return resp, err
}

// reply is the client's pooled buffer set: one request, one raw reply
// body and the runs scanned from it.
type reply struct {
	req  []byte
	body []byte
	runs []counter.Run
}

var replies = sync.Pool{New: func() any { return new(reply) }}

// releaseReply returns r to the pool unless one odd reply grew it.
func releaseReply(r *reply) {
	if cap(r.body) <= 1<<16 && cap(r.runs) <= 1<<10 {
		replies.Put(r)
	}
}

// readReply appends what body yields to b, failing once it passes
// maxReply bytes.
func readReply(body io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := body.Read(b[len(b):min(cap(b), maxReply+1)])
		b = b[:len(b)+n]
		if len(b) > maxReply {
			return b, fmt.Errorf("reply exceeds %d bytes", maxReply)
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
