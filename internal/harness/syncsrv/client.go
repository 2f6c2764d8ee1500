package syncsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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

// Draw leases n fresh counter values for the worker.
func (c *Client) Draw(worker string, n int) ([]int64, error) {
	var out struct {
		Values []int64 `json:"values"`
	}
	err := c.call("/draw?worker="+url.QueryEscape(worker)+"&n="+strconv.Itoa(n), &out)
	return out.Values, err
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
