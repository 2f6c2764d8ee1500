package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	n, tokens := testNetObs()
	tokens[0] = 1
	tokens[2] = 5
	n.GateContended(3)
	n.TraverseNs.Observe(100)
	r.Register("net", n)
	c := NewCombineObs("cmb", NewNetObs("cmb", []int32{1}, func(int) int64 { return 0 }))
	c.Passes.Inc()
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
		`countnet_hist_count{group="net",name="traverse_ns"} 1`,
		`countnet_hist_bucket{group="net",name="traverse_ns",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets: the le=127 bucket (holding 100) must count 1.
	if !strings.Contains(out, `countnet_hist_bucket{group="net",name="traverse_ns",le="127"} 1`) {
		t.Errorf("cumulative bucket wrong:\n%s", out)
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

func TestPublishExpvarOnce(t *testing.T) {
	r := testRegistry()
	if !r.PublishExpvar("countnet_test_once") {
		t.Fatal("first publish refused")
	}
	if r.PublishExpvar("countnet_test_once") {
		t.Fatal("second publish of the same name must be refused, not panic")
	}
	if NewRegistry().PublishExpvar("countnet_test_once") {
		t.Fatal("other registry must not steal a published name")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
