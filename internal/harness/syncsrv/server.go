package syncsrv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Server exposes a Hub over HTTP. Every endpoint answers JSON; /barrier
// holds the request open until the state releases, so workers
// long-poll instead of spinning.
//
//	POST /register?worker=W   -> {"workers":K}
//	POST /barrier?state=S&n=N -> blocks; {"generation":G}
//	POST /draw?worker=W&n=K   -> {"stride":S,"runs":[[start,n],...]}, 1 <= K <= MaxDraw
//	GET  /healthz             -> ok
//
// Errors answer 409 for a duplicate worker id, 503 once the hub is
// closed, and 400 for any other bad request. A /draw reply carries the
// lease as at most S runs, S the network's width: run [start,n] stands
// for the n values start, start+S, …, start+(n-1)·S, and the runs' n
// sum to K.
//
// Each reply is one JSON object on one line, appended with strconv
// into a pooled buffer and sent in one Write; handlers read the query
// from the raw URL without building url.Values. Client reads at most
// maxReply bytes of any reply, error bodies included, and scans it
// without reflection: whitespace and key order are free and a missing
// key reads as zero (a /draw reply without a stride fails as stride
// 0), while unknown or repeated keys, numbers that are not canonical
// int64 integers, more than MaxDraw runs and trailing bytes are
// errors. A /draw reply must then pass the lease check: stride >= 1,
// every run non-empty, starting at >= 0 and not overflowing, and the
// lengths summing to K.
type Server struct {
	hub  *Hub
	http *http.Server
	lis  net.Listener
}

// NewServer wraps the hub. Call Start to begin serving.
func NewServer(hub *Hub) *Server {
	s := &Server{hub: hub}
	mux := http.NewServeMux()
	mux.HandleFunc("/register", s.handleRegister)
	mux.HandleFunc("/barrier", s.handleBarrier)
	mux.HandleFunc("/draw", s.handleDraw)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: mux}
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	go s.http.Serve(lis) //nolint:errcheck // always http.ErrServerClosed after Shutdown
	return nil
}

// URL returns the base URL clients should use.
func (s *Server) URL() string { return "http://" + s.lis.Addr().String() }

// Shutdown closes the hub (releasing blocked barrier handlers) and
// drains the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hub.Close()
	return s.http.Shutdown(ctx)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	n, err := s.hub.Register(queryValue(r.URL.RawQuery, "worker"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeReply(w, func(b []byte) []byte { return appendField(b, "workers", int64(n)) })
}

func (s *Server) handleBarrier(w http.ResponseWriter, r *http.Request) {
	state := queryValue(r.URL.RawQuery, "state")
	n, err := strconv.Atoi(queryValue(r.URL.RawQuery, "n"))
	if state == "" || err != nil {
		http.Error(w, "syncsrv: barrier needs state and integer n", http.StatusBadRequest)
		return
	}
	gen, err := s.hub.Barrier(state, n)
	if err != nil {
		httpError(w, err)
		return
	}
	writeReply(w, func(b []byte) []byte { return appendField(b, "generation", gen) })
}

func (s *Server) handleDraw(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(queryValue(r.URL.RawQuery, "n"))
	if err != nil {
		http.Error(w, "syncsrv: draw needs integer n", http.StatusBadRequest)
		return
	}
	runs, err := s.hub.Draw(queryValue(r.URL.RawQuery, "worker"), n)
	if err != nil {
		httpError(w, err)
		return
	}
	stride := int64(s.hub.net.Width())
	writeReply(w, func(b []byte) []byte { return appendDraw(b, stride, runs) })
}

// replyBufs recycles the server's reply buffers.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeReply renders a reply body with appendBody into a pooled buffer
// and writes it in one Write.
func writeReply(w http.ResponseWriter, appendBody func([]byte) []byte) {
	bp := replyBufs.Get().(*[]byte)
	*bp = appendBody((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.Write(*bp) //nolint:errcheck // best effort to a dead client
	replyBufs.Put(bp)
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

// httpError answers err with the status its sentinel maps to.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrDuplicateWorker):
		code = http.StatusConflict
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}
