package obs

import (
	"fmt"
	"strings"
	"time"
)

// RenderTable renders a snapshot as the per-layer contention /
// throughput table cmd/netmon shows live and countbench prints on
// exit. When prev is non-nil the token columns show the delta since
// prev and a rate over elapsed; a nil prev renders cumulative totals.
//
// Layer rows read in the paper's terms: each layer is one depth step,
// its gates are balancers, "max%" is the busiest balancer's share of
// the layer's tokens (1/gates == perfectly spread, 100% == one
// balancer soaking the whole layer — centralized-counter behaviour).
func RenderTable(prev *Snapshot, cur Snapshot, elapsed time.Duration) string {
	var b strings.Builder
	for _, g := range cur.Groups {
		var pg *GroupSnapshot
		if prev != nil {
			pg = prev.Group(g.Name)
		}
		fmt.Fprintf(&b, "== %s (%s) ==\n", g.Name, g.Kind)
		renderCounters(&b, g, pg, elapsed)
		renderHists(&b, g)
		renderLayers(&b, g, pg, elapsed)
		b.WriteByte('\n')
	}
	if len(cur.Groups) == 0 {
		b.WriteString("(no observed groups registered)\n")
	}
	return b.String()
}

func renderCounters(b *strings.Builder, g GroupSnapshot, pg *GroupSnapshot, elapsed time.Duration) {
	for _, c := range g.Counters {
		line := fmt.Sprintf("  %-14s %12d", c.Name, c.Value)
		if pg != nil {
			if d, ok := counterDelta(pg, c); ok {
				line += fmt.Sprintf("  (+%d, %s)", d, FormatRate(d, elapsed))
			}
		}
		b.WriteString(line + "\n")
	}
}

// counterDelta returns the growth of counter c since the previous
// group snapshot; ok is false when the counter is new or went
// backwards (the engine was replaced between scrapes).
func counterDelta(pg *GroupSnapshot, c Metric) (int64, bool) {
	for _, p := range pg.Counters {
		if p.Name == c.Name {
			if d := c.Value - p.Value; d >= 0 {
				return d, true
			}
			return 0, false
		}
	}
	return 0, false
}

func renderHists(b *strings.Builder, g GroupSnapshot) {
	for _, h := range g.Hists {
		if h.Hist.Count == 0 {
			continue
		}
		s := h.Hist.Summary()
		fmt.Fprintf(b, "  %-14s n=%-10d mean=%-9.3g p50=%-9.3g p90=%-9.3g p99=%-9.3g max=%.3g",
			h.Name, s.N, s.Mean, s.P50, s.P90, s.P99, s.Max)
		if every := h.Hist.Period(); every > 1 {
			fmt.Fprintf(b, "  (1 in %d sampled)", every)
		}
		b.WriteByte('\n')
	}
}

func renderLayers(b *strings.Builder, g GroupSnapshot, pg *GroupSnapshot, elapsed time.Duration) {
	if len(g.Layers) == 0 {
		return
	}
	fmt.Fprintf(b, "  %-6s %-6s %-12s %-10s %-6s %s\n",
		"layer", "gates", "tokens", "rate", "max%", "contended")
	for i, l := range g.Layers {
		tokens, contended := l.Tokens, l.Contended
		rate := "-"
		if pg != nil && i < len(pg.Layers) && pg.Layers[i].Tokens <= l.Tokens {
			d := l.Tokens - pg.Layers[i].Tokens
			tokens = d
			contended = l.Contended - pg.Layers[i].Contended
			rate = FormatRate(d, elapsed)
		}
		maxShare := "-"
		if l.Tokens > 0 && l.Gates > 0 {
			maxShare = fmt.Sprintf("%.0f%%", 100*float64(l.MaxGateTokens)/float64(l.Tokens))
		}
		fmt.Fprintf(b, "  %-6d %-6d %-12d %-10s %-6s %d\n",
			l.Layer, l.Gates, tokens, rate, maxShare, contended)
	}
}
