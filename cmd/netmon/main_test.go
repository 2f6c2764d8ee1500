package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"countnet/internal/obs"
)

// staticSource serves a fixed group snapshot — a stand-in for a
// worker's observed engine.
type staticSource struct {
	name string
	ops  int64
}

func (s staticSource) GroupSnapshot() obs.GroupSnapshot {
	return obs.GroupSnapshot{
		Name:     s.name,
		Kind:     "counter",
		Counters: []obs.Metric{{Name: "ops", Value: s.ops}},
	}
}

// startEndpoint serves a one-source registry over httptest and returns
// its host:port (the form -addr and -fleet take).
func startEndpoint(t *testing.T, src obs.Source) string {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Register(src.GroupSnapshot().Name, src)
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestParseTargets(t *testing.T) {
	got := parseTargets("localhost:8720", "")
	if len(got) != 1 || got[0].name != "localhost:8720" || got[0].base != "http://localhost:8720" {
		t.Fatalf("single-addr targets = %+v", got)
	}
	got = parseTargets("ignored:1", "a:1, b:2,,c:3")
	if len(got) != 3 || got[0].name != "a:1" || got[1].name != "b:2" || got[2].name != "c:3" {
		t.Fatalf("fleet targets = %+v", got)
	}
}

// TestScrapeFleetMerges: two endpoints must fold into one snapshot
// with summed counters and both origins named.
func TestScrapeFleetMerges(t *testing.T) {
	a := startEndpoint(t, staticSource{name: "net", ops: 10})
	b := startEndpoint(t, staticSource{name: "net", ops: 32})
	client := &http.Client{Timeout: time.Second}
	targets := parseTargets("", a+","+b)

	s, err := scrapeFleet(client, targets)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Group("net")
	if g == nil {
		t.Fatalf("merged snapshot lost the group: %+v", s)
	}
	if len(g.Counters) != 1 || g.Counters[0].Name != "ops" || g.Counters[0].Value != 42 {
		t.Fatalf("merged counters = %+v, want ops=42", g.Counters)
	}
	origins := []string{a, b}
	sort.Strings(origins)
	if g.Origin != strings.Join(origins, ",") {
		t.Fatalf("merged Origin = %q, want %q", g.Origin, strings.Join(origins, ","))
	}
	if !strings.Contains(obs.RenderTable(nil, *s, 0), "ops") {
		t.Fatal("merged snapshot does not render")
	}
}

// TestScrapeFleetToleratesPartialFailure: a dead endpoint must not
// take the fleet view down as long as one endpoint answers.
func TestScrapeFleetToleratesPartialFailure(t *testing.T) {
	live := startEndpoint(t, staticSource{name: "net", ops: 7})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close() // connection refused from here on
	client := &http.Client{Timeout: time.Second}

	s, err := scrapeFleet(client, parseTargets("", live+","+deadAddr))
	if err != nil {
		t.Fatalf("fleet scrape failed with one live endpoint: %v", err)
	}
	g := s.Group("net")
	if g == nil || g.Counters[0].Value != 7 {
		t.Fatalf("snapshot = %+v, want the live endpoint's ops=7", s)
	}
	if g.Origin != live {
		t.Fatalf("Origin = %q, want only the live endpoint %q", g.Origin, live)
	}

	if _, err := scrapeFleet(client, parseTargets("", deadAddr)); err == nil {
		t.Fatal("all-dead fleet scrape reported success")
	}
}

// TestScrapeRetryRecovers: an endpoint that fails its first requests
// must be retried with backoff rather than killing the watch.
func TestScrapeRetryRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Register("net", staticSource{name: "net", ops: 3})
	inner := reg.Handler()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	targets := parseTargets(strings.TrimPrefix(srv.URL, "http://"), "")

	s, err := scrapeRetry(context.Background(), client, targets, 10*time.Second)
	if err != nil {
		t.Fatalf("retry gave up on a recovering endpoint: %v", err)
	}
	if g := s.Group("net"); g == nil || g.Counters[0].Value != 3 {
		t.Fatalf("snapshot after recovery = %+v", s)
	}
	if n := calls.Load(); n < 3 {
		t.Fatalf("endpoint saw %d requests, want >= 3 (two failures plus success)", n)
	}
}

// TestScrapeRetryGivesUp: a permanently dead endpoint must fail after
// the timeout window, not hang, and a canceled context must stop the
// backoff loop early.
func TestScrapeRetryGivesUp(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	client := &http.Client{Timeout: time.Second}
	targets := parseTargets(addr, "")

	start := time.Now()
	if _, err := scrapeRetry(context.Background(), client, targets, 300*time.Millisecond); err == nil {
		t.Fatal("dead endpoint reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ran %v past a 300ms window", elapsed)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := scrapeRetry(ctx, client, targets, time.Hour); err != context.Canceled {
		t.Fatalf("canceled retry returned %v, want context.Canceled", err)
	}
}

// TestValidateEndpoint exercises the full -validate pass, including
// the /debug/flight payload shape with the recorder both off and on.
func TestValidateEndpoint(t *testing.T) {
	obs.DisableFlight()
	t.Cleanup(obs.DisableFlight)
	addr := startEndpoint(t, staticSource{name: "net", ops: 5})
	client := &http.Client{Timeout: time.Second}
	base := "http://" + addr

	snap, err := scrape(client, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateEndpoint(client, base, snap); err != nil {
		t.Fatalf("validate with recorder off: %v", err)
	}

	obs.EnableFlight(64)
	obs.RecordFlight(obs.FlightPhaseStart, 0, 2)
	obs.RecordFlight(obs.FlightBlockLease, 8, 4)
	if err := validateEndpoint(client, base, snap); err != nil {
		t.Fatalf("validate with recorder on: %v", err)
	}
	for i := int64(0); i < 200; i++ { // wrap the 64-slot ring three times
		obs.RecordFlight(obs.FlightBlockLease, 12+4*i, 4)
	}
	if err := validateEndpoint(client, base, snap); err != nil {
		t.Fatalf("validate after the ring wrapped: %v", err)
	}

	if err := validateEndpoint(client, base, &obs.Snapshot{TakenUnixNano: 1}); err == nil {
		t.Fatal("group-less snapshot validated")
	}
}
