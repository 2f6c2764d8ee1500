package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Exposition: a registry snapshot rendered three ways —
//
//   - /debug/vars   expvar JSON (the snapshot published as one var)
//   - /metrics      Prometheus text exposition format
//   - /snapshot     the raw Snapshot as JSON (what cmd/netmon consumes)
//
// all served from one http.Handler so countbench needs a single
// -http flag.

// expvar names are global to the process; publishing twice panics.
// publishedVars dedups across registries (first publisher wins) so
// tests with throwaway registries cannot crash the run.
var (
	publishedMu   sync.Mutex
	publishedVars = map[string]bool{}
)

// PublishExpvar publishes the registry's snapshot under the given
// expvar name ("countnet" by convention). Returns false if the name
// was already claimed (by this or any other registry).
func (r *Registry) PublishExpvar(name string) bool {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if publishedVars[name] {
		return false
	}
	publishedVars[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}

// WritePrometheus renders the registry's current state in the
// Prometheus text exposition format (version 0.0.4):
//
//	countnet_counter_total{group,kind,name}        engine counters
//	countnet_gate_tokens_total{group,gate,layer}   per-gate traffic
//	countnet_gate_contended_total{group,gate,layer}
//	countnet_layer_tokens_total{group,layer}       per-layer traffic
//	countnet_hist_bucket{group,name,le}            cumulative buckets
//	countnet_hist_sum{group,name}
//	countnet_hist_count{group,name}
//
// Histogram series are scaled by the histogram's sampling period, so a
// counter's sampled next_ns reports estimated event counts and sums
// (each sample stands for SampleEvery values) on the same footing as
// the exact ops counter. The text is rendered into a pooled buffer, so
// a steady scrape loop allocates only for its snapshot.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

// expoBufs recycles exposition buffers across scrapes.
var expoBufs = sync.Pool{New: func() any { return new([]byte) }}

func writePrometheus(w io.Writer, s Snapshot) error {
	bp := expoBufs.Get().(*[]byte)
	*bp = appendPrometheus((*bp)[:0], s)
	_, err := w.Write(*bp)
	expoBufs.Put(bp)
	return err
}

// appendPrometheus appends the text exposition of s to b.
func appendPrometheus(b []byte, s Snapshot) []byte {
	b = append(b, "# TYPE countnet_counter_total counter\n"...)
	for _, g := range s.Groups {
		b = appendMetrics(b, "countnet_counter_total", &g, g.Counters)
	}
	b = append(b, "# TYPE countnet_gate_tokens_total counter\n"...)
	b = append(b, "# TYPE countnet_gate_contended_total counter\n"...)
	for _, g := range s.Groups {
		for _, gt := range g.Gates {
			b = appendGate(b, "countnet_gate_tokens_total", g.Name, gt, gt.Tokens)
			if gt.Contended != 0 {
				b = appendGate(b, "countnet_gate_contended_total", g.Name, gt, gt.Contended)
			}
		}
	}
	b = append(b, "# TYPE countnet_layer_tokens_total counter\n"...)
	for _, g := range s.Groups {
		for _, l := range g.Layers {
			b = append(b, "countnet_layer_tokens_total"...)
			b = appendLabel(b, '{', "group", g.Name)
			b = appendIntLabel(b, "layer", int64(l.Layer))
			b = appendValue(b, l.Tokens)
		}
	}
	b = append(b, "# TYPE countnet_hist histogram\n"...)
	for _, g := range s.Groups {
		for _, h := range g.Hists {
			every := h.Hist.Period()
			cum := int64(0)
			for i, n := range h.Hist.Buckets {
				cum += n
				if n == 0 && i != len(h.Hist.Buckets)-1 {
					continue // keep the exposition sparse but cumulative-correct
				}
				b = appendHistSeries(b, "countnet_hist_bucket", g.Name, h.Name)
				b = appendIntLabel(b, "le", BucketUpper(i))
				b = appendValue(b, cum*every)
			}
			b = appendHistSeries(b, "countnet_hist_bucket", g.Name, h.Name)
			b = append(b, `,le="+Inf"`...)
			b = appendValue(b, h.Hist.Count*every)
			b = appendHistSeries(b, "countnet_hist_sum", g.Name, h.Name)
			b = appendValue(b, h.Hist.Sum*every)
			b = appendHistSeries(b, "countnet_hist_count", g.Name, h.Name)
			b = appendValue(b, h.Hist.Count*every)
		}
	}
	return b
}

// appendLabel appends sep, then key="value" with the value escaped as
// the Prometheus text format defines: a backslash, a double quote and
// a newline become \\, \" and \n. Every other byte passes through,
// except that an invalid UTF-8 byte becomes U+FFFD. Runs of plain
// bytes are appended whole, so names that need no escaping (group,
// metric and engine names) cost one copy.
func appendLabel(b []byte, sep byte, key, v string) []byte {
	b = append(b, sep)
	b = append(b, key...)
	b = append(b, '=', '"')
	plain := 0 // start of the pending run of plain bytes
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < utf8.RuneSelf && c != '\\' && c != '"' && c != '\n' {
			continue
		}
		var esc string
		switch c {
		case '\\':
			esc = `\\`
		case '"':
			esc = `\"`
		case '\n':
			esc = `\n`
		default:
			if r, n := utf8.DecodeRuneInString(v[i:]); r != utf8.RuneError || n > 1 {
				i += n - 1 // a valid rune, U+FFFD included, passes through
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, v[plain:i]...)
		b = append(b, esc...)
		plain = i + 1
	}
	b = append(b, v[plain:]...)
	return append(b, '"')
}

// appendIntLabel appends ,key="n".
func appendIntLabel(b []byte, key string, n int64) []byte {
	b = append(b, ',')
	b = append(b, key...)
	b = append(b, `="`...)
	b = strconv.AppendInt(b, n, 10)
	return append(b, '"')
}

// appendValue closes a series' label set and appends its value line.
func appendValue(b []byte, v int64) []byte {
	b = append(b, "} "...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendMetrics appends one metric{group,kind,name} series per metric
// of group g.
func appendMetrics(b []byte, metric string, g *GroupSnapshot, ms []Metric) []byte {
	for _, m := range ms {
		b = append(b, metric...)
		b = appendLabel(b, '{', "group", g.Name)
		b = appendLabel(b, ',', "kind", g.Kind)
		b = appendLabel(b, ',', "name", m.Name)
		b = appendValue(b, m.Value)
	}
	return b
}

// appendGate appends the open per-gate series metric{group,gate,layer}
// with value v.
func appendGate(b []byte, metric, group string, gt GateSnapshot, v int64) []byte {
	b = append(b, metric...)
	b = appendLabel(b, '{', "group", group)
	b = appendIntLabel(b, "gate", int64(gt.Gate))
	b = appendIntLabel(b, "layer", int64(gt.Layer))
	return appendValue(b, v)
}

// appendHistSeries appends the open histogram series metric{group,name.
func appendHistSeries(b []byte, metric, group, name string) []byte {
	b = append(b, metric...)
	b = appendLabel(b, '{', "group", group)
	return appendLabel(b, ',', "name", name)
}

// flightDump is the /debug/flight response body: NextSeq and the
// events read under one hold of the ring's lock, so a page is the
// contiguous run of retained events with Seq >= since ending at
// NextSeq-1. Poll next_seq, then fetch deltas with ?since=N (the same
// pagination netmon -validate checks).
type flightDump struct {
	Enabled bool          `json:"enabled"`
	NextSeq uint64        `json:"next_seq"`
	Events  []FlightEvent `json:"events"`
}

// Handler serves the registry's exposition endpoints: /snapshot
// (JSON), /metrics (Prometheus text), /debug/vars (expvar, including
// this registry if published), and an index at /.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f := DefaultFlight()
		var since uint64
		if q := req.URL.Query().Get("since"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		next, events := f.page(since)
		resp := flightDump{Enabled: f != nil, NextSeq: next, Events: events}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		_, _ = io.WriteString(w, "countnet obs endpoints: /snapshot (JSON), /metrics (Prometheus), /debug/vars (expvar), /debug/flight (flight recorder)\n")
	})
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// StartServer listens on addr (":0" picks a free port) and serves the
// registry's Handler in a background goroutine until Shutdown.
func (r *Registry) StartServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: r.Handler()}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// FormatRate renders an events-per-second rate compactly (1.2M, 340k).
func FormatRate(events int64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "-"
	}
	r := float64(events) / elapsed.Seconds()
	switch {
	case r >= 1e6:
		return strconv.FormatFloat(r/1e6, 'f', 2, 64) + "M/s"
	case r >= 1e3:
		return strconv.FormatFloat(r/1e3, 'f', 1, 64) + "k/s"
	default:
		return strconv.FormatFloat(r, 'f', 0, 64) + "/s"
	}
}
