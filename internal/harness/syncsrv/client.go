package syncsrv

import (
	"fmt"
	"io"
	"math"
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
// concurrent use (they share one http.Client).
type Client struct {
	base string
	http *http.Client
}

// NewClient targets the server at base (e.g. "http://127.0.0.1:8123").
// Barrier calls block server-side, so the underlying HTTP client has
// no request timeout; bound waits with the phase plan instead.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// Register announces the worker id and returns the number of workers
// registered so far.
func (c *Client) Register(worker string) (int, error) {
	var n int64
	err := c.call("/register?worker="+url.QueryEscape(worker), func(r *reply) (err error) {
		n, err = scanField(r.body, workersKeys)
		return err
	})
	return int(n), err
}

// Barrier arrives at the named state and blocks until all n parties
// have arrived, returning the caller's generation.
func (c *Client) Barrier(state string, n int) (int64, error) {
	var gen int64
	err := c.call("/barrier?state="+url.QueryEscape(state)+"&n="+strconv.Itoa(n), func(r *reply) (err error) {
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
	err := c.call("/draw?worker="+url.QueryEscape(worker)+"&n="+strconv.Itoa(n), func(r *reply) error {
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

// call performs one round trip (every endpoint is a bodiless POST) and
// hands the reply, read into a pooled buffer of at most maxReply bytes,
// to parse; non-2xx responses become errors carrying the server's
// message.
func (c *Client) call(path string, parse func(*reply) error) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r := replies.Get().(*reply)
	defer releaseReply(r)
	r.body, err = readReply(resp.Body, r.body[:0])
	if err != nil {
		return fmt.Errorf("syncsrv: POST %s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("syncsrv: POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(r.body)))
	}
	return parse(r)
}

// reply is the client's pooled read buffer: one raw body and the runs
// scanned from it.
type reply struct {
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
