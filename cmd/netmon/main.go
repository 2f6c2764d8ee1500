// Command netmon attaches to one or more running observability
// endpoints (e.g. `countbench -obs -http=:8720 -linger`, or any
// process serving countnet.ObsHandler) and renders a live per-layer
// contention and throughput table: tokens per balancer layer, rates
// over the refresh interval, the share of the busiest balancer,
// contention events, and the operation latency histograms. See
// docs/OBSERVABILITY.md for how to read the table against the paper's
// contention model.
//
// Usage:
//
//	netmon -addr localhost:8720                # refresh every second
//	netmon -addr localhost:8720 -interval 250ms -count 20
//	netmon -addr localhost:8720 -once          # one snapshot, no deltas
//	netmon -addr localhost:8720 -once -validate # smoke-check the endpoint
//	netmon -fleet host1:8720,host2:8720        # merged fleet view
//
// With -fleet, every endpoint is scraped each interval, each group is
// tagged with the endpoint it came from, and the snapshots are folded
// with obs.Merge into one fleet table — counters and histogram
// buckets sum across processes, watermarks take min/max, and the
// Origin column names the contributors. Endpoints that fail a scrape
// are skipped for that round (their metrics simply don't contribute);
// netmon only gives up when every endpoint has been failing for
// -timeout, retrying with exponential backoff in between.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"countnet/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8720", "host:port of the observability endpoint")
		fleet    = flag.String("fleet", "", "comma-separated host:port list; scrape all and render one merged fleet table (overrides -addr)")
		interval = flag.Duration("interval", time.Second, "refresh interval (delta rates cover one interval)")
		count    = flag.Int("count", 0, "number of refreshes, 0 = until interrupted")
		once     = flag.Bool("once", false, "take a single snapshot and exit (no delta column)")
		validate = flag.Bool("validate", false, "also verify /snapshot, /metrics, /debug/vars and /debug/flight payload shapes; exit non-zero on mismatch")
		timeout  = flag.Duration("timeout", 5*time.Second, "tolerated window of consecutive scrape failures (also bounds the first scrape)")
	)
	flag.Parse()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	targets := parseTargets(*addr, *fleet)
	client := &http.Client{Timeout: 2 * time.Second}

	cur, err := scrapeRetry(ctx, client, targets, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netmon:", err)
		os.Exit(1)
	}
	if *validate {
		for _, tgt := range targets {
			if err := validateEndpoint(client, tgt.base, cur); err != nil {
				fmt.Fprintf(os.Stderr, "netmon: validate %s: %v\n", tgt.name, err)
				os.Exit(1)
			}
		}
		fmt.Fprintln(os.Stderr, "netmon: endpoint payloads OK")
	}
	if len(targets) > 1 {
		fmt.Printf("== fleet: %d endpoints ==\n", len(targets))
	}
	fmt.Print(obs.RenderTable(nil, *cur, 0))
	if *once {
		return
	}

	tick := time.NewTicker(*interval)
	defer tick.Stop()
	prev := cur
	for n := 1; *count == 0 || n < *count; n++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		next, err := scrapeRetry(ctx, client, targets, *timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netmon:", err)
			os.Exit(1)
		}
		elapsed := time.Duration(next.TakenUnixNano-prev.TakenUnixNano) * time.Nanosecond
		fmt.Println()
		fmt.Print(obs.RenderTable(prev, *next, elapsed))
		prev = next
	}
}

// target is one monitored endpoint. name tags the groups it
// contributes (the Origin column of the merged table).
type target struct {
	name string
	base string
}

// parseTargets builds the endpoint list: the -fleet list when given,
// else the single -addr.
func parseTargets(addr, fleet string) []target {
	var out []target
	if fleet == "" {
		return []target{{name: addr, base: "http://" + addr}}
	}
	for _, a := range strings.Split(fleet, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		out = append(out, target{name: a, base: "http://" + a})
	}
	return out
}

// scrapeRetry scrapes the fleet until at least one endpoint answers,
// retrying with exponential backoff (100ms doubling to 2s) while the
// whole fleet is unreachable, and giving up only once the failure
// window exceeds timeout. A transient single-endpoint blip therefore
// never kills a long-running watch: the endpoint just sits out the
// rounds it misses.
func scrapeRetry(ctx context.Context, client *http.Client, targets []target, timeout time.Duration) (*obs.Snapshot, error) {
	deadline := time.Now().Add(timeout)
	backoff := 100 * time.Millisecond
	for {
		s, err := scrapeFleet(client, targets)
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no snapshot within %v: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// scrapeFleet scrapes every target and merges the snapshots, tagging
// each endpoint's groups with its name. Unreachable endpoints are
// skipped; it fails only when none answered.
func scrapeFleet(client *http.Client, targets []target) (*obs.Snapshot, error) {
	var snaps []*obs.Snapshot
	var lastErr error
	for _, tgt := range targets {
		s, err := scrape(client, tgt.base)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", tgt.name, err)
			continue
		}
		s.TagOrigin(tgt.name)
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		return nil, lastErr
	}
	if len(targets) == 1 {
		// Single-endpoint mode renders the snapshot verbatim (no
		// canonicalization, no origin tagging of the table).
		return snaps[0], nil
	}
	return obs.MergeAll(snaps...), nil
}

func scrape(client *http.Client, base string) (*obs.Snapshot, error) {
	body, err := get(client, base+"/snapshot")
	if err != nil {
		return nil, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("/snapshot: %w", err)
	}
	return &s, nil
}

// validateEndpoint smoke-checks all four exposition endpoints — used
// by `make obs-smoke` to gate CI on the endpoint actually serving
// well-formed payloads.
func validateEndpoint(client *http.Client, base string, snap *obs.Snapshot) error {
	if len(snap.Groups) == 0 {
		return fmt.Errorf("/snapshot has no observed groups (is the target running with -obs?)")
	}
	if snap.TakenUnixNano == 0 {
		return fmt.Errorf("/snapshot is not timestamped")
	}
	for _, g := range snap.Groups {
		if g.Name == "" || g.Kind == "" {
			return fmt.Errorf("/snapshot group missing name or kind: %+v", g)
		}
	}

	body, err := get(client, base+"/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "countnet_") {
		return fmt.Errorf("/metrics has no countnet_ series")
	}

	body, err = get(client, base+"/debug/vars")
	if err != nil {
		return err
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		return fmt.Errorf("/debug/vars: %w", err)
	}

	body, err = get(client, base+"/debug/flight")
	if err != nil {
		return err
	}
	var flight struct {
		Enabled bool              `json:"enabled"`
		NextSeq uint64            `json:"next_seq"`
		Events  []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &flight); err != nil {
		return fmt.Errorf("/debug/flight: %w", err)
	}
	if flight.Enabled && uint64(len(flight.Events)) > flight.NextSeq {
		return fmt.Errorf("/debug/flight reports %d events past next_seq %d", len(flight.Events), flight.NextSeq)
	}
	for i := 1; i < len(flight.Events); i++ {
		if flight.Events[i].Seq <= flight.Events[i-1].Seq {
			return fmt.Errorf("/debug/flight events out of order at %d", i)
		}
	}
	return nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
