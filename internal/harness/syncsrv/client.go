package syncsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

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
	var out struct {
		Workers int `json:"workers"`
	}
	err := c.call("/register?worker="+url.QueryEscape(worker), &out)
	return out.Workers, err
}

// Barrier arrives at the named state and blocks until all n parties
// have arrived, returning the caller's generation.
func (c *Client) Barrier(state string, n int) (int64, error) {
	var out struct {
		Generation int64 `json:"generation"`
	}
	err := c.call("/barrier?state="+url.QueryEscape(state)+"&n="+strconv.Itoa(n), &out)
	return out.Generation, err
}

// Draw leases n fresh counter values for the worker. The server ships
// the lease as strided runs; Draw checks them against the request
// before expanding them, so a malformed reply is an error, not an
// allocation of whatever size it names.
func (c *Client) Draw(worker string, n int) ([]int64, error) {
	var out drawReply
	if err := c.call("/draw?worker="+url.QueryEscape(worker)+"&n="+strconv.Itoa(n), &out); err != nil {
		return nil, err
	}
	if err := out.check(n); err != nil {
		return nil, err
	}
	vals := make([]int64, 0, n)
	for _, r := range out.Runs {
		vals = counter.Run{Start: r[0], N: r[1]}.AppendValues(vals, out.Stride)
	}
	return vals, nil
}

// check validates a /draw reply for a lease of n values: at most
// MaxDraw runs of stride >= 1, each non-empty, starting at a value
// >= 0 and not overflowing, whose lengths sum to exactly n.
func (d *drawReply) check(n int) error {
	if d.Stride < 1 {
		return fmt.Errorf("syncsrv: draw reply with stride %d", d.Stride)
	}
	if len(d.Runs) > MaxDraw {
		return fmt.Errorf("syncsrv: draw reply with %d runs (max %d)", len(d.Runs), MaxDraw)
	}
	left := int64(n)
	for _, r := range d.Runs {
		start, k := r[0], r[1]
		if start < 0 || k < 1 || k > left {
			return fmt.Errorf("syncsrv: draw reply run [%d,%d] with %d of %d values left", start, k, left, n)
		}
		if (math.MaxInt64-start)/d.Stride < k-1 {
			return fmt.Errorf("syncsrv: draw reply run [%d,%d] overflows at stride %d", start, k, d.Stride)
		}
		left -= k
	}
	if left != 0 {
		return fmt.Errorf("syncsrv: draw reply holds %d values, want %d", int64(n)-left, n)
	}
	return nil
}

// call performs one JSON round trip (every endpoint is a bodiless
// POST); non-2xx responses become errors carrying the server's message.
func (c *Client) call(path string, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("syncsrv: POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}
