package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	n, tokens := testNetObs()
	tokens[0] = 1
	tokens[2] = 5
	n.GateContended(3)
	r.Register("net", n)
	c := NewCombineObs("cmb", NewNetObs("cmb", []int32{1}, func(int) int64 { return 0 }))
	c.PassServed.Observe(1)
	c.PassNs.Observe(100)
	r.Register("cmb", c)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := testRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`countnet_counter_total{group="cmb",kind="combining",name="passes"} 1`,
		`countnet_gate_tokens_total{group="net",gate="2",layer="2"} 5`,
		`countnet_gate_contended_total{group="net",gate="3",layer="2"} 1`,
		`countnet_layer_tokens_total{group="net",layer="1"} 1`,
		`countnet_hist_count{group="cmb",name="pass_ns"} 1`,
		`countnet_hist_bucket{group="cmb",name="pass_ns",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets: the le=127 bucket (holding 100) must count 1.
	if !strings.Contains(out, `countnet_hist_bucket{group="cmb",name="pass_ns",le="127"} 1`) {
		t.Errorf("cumulative bucket wrong:\n%s", out)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenSnapshot is a fixed period-1 snapshot touching every series
// the exposition renders: label values that need quoting (quote,
// backslash), gates with and without contention, sparse and empty
// histograms, and the unbounded last bucket.
func goldenSnapshot() Snapshot {
	return Snapshot{TakenUnixNano: 1, Groups: []GroupSnapshot{
		{
			Name: `ctr"q\b`, Kind: "counter",
			Counters: []Metric{{Name: "ops", Value: 12345}, {Name: "neg", Value: -7}},
			Hists: []HistMetric{
				{Name: "next_ns", Hist: HistSnapshot{
					Count: 6, Sum: 900, Min: 0, Max: 400,
					Buckets: []int64{1, 0, 0, 0, 0, 0, 0, 2, 0, 3},
				}},
				{Name: "empty_ns", Hist: HistSnapshot{}},
				{Name: "wide", Hist: HistSnapshot{
					Count: 2, Sum: math.MaxInt64, Min: 1, Max: math.MaxInt64,
					Buckets: append(make([]int64, 63), 2),
				}},
			},
			Gates: []GateSnapshot{
				{Gate: 0, Layer: 1, Tokens: 10},
				{Gate: 1, Layer: 1, Tokens: 9, Contended: 4},
				{Gate: 2, Layer: 2, Tokens: 19},
			},
			Layers: []LayerSnapshot{
				{Layer: 1, Gates: 2, Tokens: 19, Contended: 4, MaxGateTokens: 10},
				{Layer: 2, Gates: 1, Tokens: 19, MaxGateTokens: 19},
			},
		},
		{Name: "pool", Kind: "pool", Counters: []Metric{{Name: "puts", Value: 0}}},
	}}
}

// TestPrometheusGolden pins the text exposition byte for byte against
// testdata/prometheus.golden (rewrite with -update).
func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := writePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n got:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}

// TestPrometheusRenderAllocFree: rendering into a reused buffer
// allocates nothing once the buffer has grown, whatever the snapshot
// holds (quoted labels without newlines, sampled histograms).
func TestPrometheusRenderAllocFree(t *testing.T) {
	s := goldenSnapshot()
	s.Groups[0].Hists[0].Hist.Every = SampleEvery
	buf := appendPrometheus(nil, s)
	if n := testing.AllocsPerRun(100, func() { buf = appendPrometheus(buf[:0], s) }); n != 0 {
		t.Errorf("render into a reused buffer allocates %v per run", n)
	}
}

// TestPrometheusScalesByPeriod: a sampled histogram's bucket, sum and
// count series are its samples times its period.
func TestPrometheusScalesByPeriod(t *testing.T) {
	h := NewSampledHist()
	h.Observe(100)
	h.Observe(3)
	var b bytes.Buffer
	err := writePrometheus(&b, Snapshot{Groups: []GroupSnapshot{{Name: "c", Hists: []HistMetric{{Name: "next_ns", Hist: h.Snapshot()}}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`countnet_hist_bucket{group="c",name="next_ns",le="3"} 64`,
		`countnet_hist_bucket{group="c",name="next_ns",le="127"} 128`,
		`countnet_hist_bucket{group="c",name="next_ns",le="+Inf"} 128`,
		`countnet_hist_sum{group="c",name="next_ns"} 6592`,
		`countnet_hist_count{group="c",name="next_ns"} 128`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := testRegistry()
	srv, err := r.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if len(snap.Groups) != 2 {
		t.Fatalf("/snapshot groups = %d", len(snap.Groups))
	}

	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "countnet_gate_tokens_total") {
		t.Fatalf("/metrics status %d body %q", code, body[:min(len(body), 120)])
	}

	code, body = get("/debug/vars")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("/debug/vars status %d", code)
	}

	if code, _ = get("/"); code != 200 {
		t.Fatalf("index status %d", code)
	}
	if code, _ = get("/bogus"); code != 404 {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// publishRuns numbers TestPublishExpvarOnce's invocations: expvar
// names are process-global and -count reruns a test in one process,
// so each run publishes under a name of its own.
var publishRuns atomic.Int64

func TestPublishExpvarOnce(t *testing.T) {
	name := "countnet_test_once_" + strconv.FormatInt(publishRuns.Add(1), 10)
	r := testRegistry()
	if !r.PublishExpvar(name) {
		t.Fatal("first publish refused")
	}
	if r.PublishExpvar(name) {
		t.Fatal("second publish of the same name must be refused, not panic")
	}
	if NewRegistry().PublishExpvar(name) {
		t.Fatal("other registry must not steal a published name")
	}
}

// TestPrometheusLabelEscaping pins label values to the text format's
// escapes: exactly backslash, double quote and newline are escaped,
// every other byte passes through, and an invalid UTF-8 byte becomes
// U+FFFD.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", `v="plain"`},
		{"", `v=""`},
		{`a\b`, `v="a\\b"`},
		{`say "hi"`, `v="say \"hi\""`},
		{"line1\nline2", `v="line1\nline2"`},
		{"\n", `v="\n"`},
		{"ctl\x01\t\r", "v=\"ctl\x01\t\r\""},
		{"ünï €", `v="ünï €"`},
		{"bad\xffbyte", "v=\"bad\uFFFDbyte\""},
		{"cut\xe2\x82", "v=\"cut\uFFFD\uFFFD\""},
		{"\uFFFD", "v=\"\uFFFD\""},
		{"\\\"\n\x80", "v=\"\\\\\\\"\\n\uFFFD\""},
	}
	for _, tc := range cases {
		got := string(appendLabel(nil, '{', "v", tc.in))
		if want := "{" + tc.want; got != want {
			t.Errorf("label %q renders %s, want %s", tc.in, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkWritePrometheus renders a counter group shaped like one on
// L(4,4): 16-wide network, 10 layers of 8 gates, two histograms.
func BenchmarkWritePrometheus(b *testing.B) {
	gateLayer := make([]int32, 80)
	for i := range gateLayer {
		gateLayer[i] = int32(i/8 + 1)
	}
	net := NewNetObs("bench", gateLayer, func(g int) int64 { return int64(1000 + g) })
	c := NewCounterObs("count_observed", net, func() int64 { return 1 << 20 })
	for i := int64(0); i < 1000; i++ {
		c.NextNs.Observe(100 + i)
		c.TraverseNs.Observe(50 + i)
	}
	r := NewRegistry()
	r.Register("count_observed", c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
