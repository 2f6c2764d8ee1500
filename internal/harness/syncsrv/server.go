package syncsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
)

// Server exposes a Hub over HTTP. Every endpoint speaks JSON; /barrier
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
	n, err := s.hub.Register(r.URL.Query().Get("worker"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]int{"workers": n})
}

func (s *Server) handleBarrier(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	n, err := strconv.Atoi(q.Get("n"))
	if state == "" || err != nil {
		http.Error(w, "syncsrv: barrier needs state and integer n", http.StatusBadRequest)
		return
	}
	gen, err := s.hub.Barrier(state, n)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]int64{"generation": gen})
}

func (s *Server) handleDraw(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	if err != nil {
		http.Error(w, "syncsrv: draw needs integer n", http.StatusBadRequest)
		return
	}
	runs, err := s.hub.Draw(q.Get("worker"), n)
	if err != nil {
		httpError(w, err)
		return
	}
	reply := drawReply{Stride: int64(s.hub.net.Width()), Runs: make([][2]int64, len(runs))}
	for i, r := range runs {
		reply.Runs[i] = [2]int64{r.Start, r.N}
	}
	writeJSON(w, reply)
}

// drawReply is the /draw body: a lease as [start,n] runs of one stride.
type drawReply struct {
	Stride int64      `json:"stride"`
	Runs   [][2]int64 `json:"runs"`
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort to a dead client
}
