// Package obs is the engine's sampling, allocation-free observability
// layer: padded per-gate/per-layer counters, lock-free power-of-two
// latency histograms, and snapshot exposition (expvar, Prometheus
// text, JSON over HTTP) for the concurrent counting substrates.
//
// The design contract is zero cost when disabled: instrumented hot
// paths hold a nil pointer to their obs state and pay exactly one
// nil-check per operation (pinned by AllocsPerRun==0 tests and the
// BenchmarkObsOverhead guard lane, recorded in BENCH_obs.json). When
// enabled, every recording primitive is allocation-free, and every
// one that sits on a per-value path is wait-free or bounded-CAS, so
// profiles of an observed run still describe the engine rather than
// its instrumentation. The flight recorder alone takes a mutex, held
// for one slot write: its events are control-plane edges (leases,
// barrier arrivals, phase edges), not per-value work.
//
// Terminology follows the paper: a *gate* is a balancer, a *layer* is
// one depth step of the network; per-gate token counts are the
// distributed-contention evidence the paper's throughput argument
// rests on. See docs/OBSERVABILITY.md for how to read the metrics.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors Now. Using a monotonic base keeps differences immune
// to wall-clock steps.
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start, the timebase
// of every latency histogram. Centralizing the clock read here keeps
// the sched-instrumented packages free of direct time calls.
//
//netvet:hotpath
func Now() int64 { return int64(time.Since(epoch)) }

// PaddedCount is a cache-line-isolated event counter: 128 bytes so two
// counters embedded side by side (or in adjacent slice elements) never
// share a 64-byte line and adjacent-line prefetching never couples
// neighbours — the same layout discipline as runner's gate state.
//
//netvet:padalign 128
type PaddedCount struct {
	v atomic.Int64
	_ [120]byte
}

// Add adds d to the counter.
//
//netvet:hotpath
func (c *PaddedCount) Add(d int64) { c.v.Add(d) }

// Inc adds one.
//
//netvet:hotpath
func (c *PaddedCount) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *PaddedCount) Load() int64 { return c.v.Load() }

// Metric is one named counter value in a snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistMetric is one named histogram in a snapshot.
type HistMetric struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// GateSnapshot is one gate's (balancer's) counters.
type GateSnapshot struct {
	Gate      int   `json:"gate"`
	Layer     int   `json:"layer"` // 1-based depth step
	Tokens    int64 `json:"tokens"`
	Contended int64 `json:"contended,omitempty"`
}

// LayerSnapshot aggregates one layer (depth step) of the network.
type LayerSnapshot struct {
	Layer     int   `json:"layer"`
	Gates     int   `json:"gates"`
	Tokens    int64 `json:"tokens"`
	Contended int64 `json:"contended,omitempty"`
	// MaxGateTokens is the busiest gate's token count — against
	// Tokens/Gates it shows how evenly the layer spreads its load,
	// the paper's distributed-contention claim made measurable.
	MaxGateTokens int64 `json:"max_gate_tokens"`
}

// GroupSnapshot is the full state of one observed engine instance.
// Counters are monotone event counts (rendered with deltas).
type GroupSnapshot struct {
	Name     string          `json:"name"`
	Kind     string          `json:"kind"`             // network, counter, combining, pool, adaptive
	Origin   string          `json:"origin,omitempty"` // worker/process the group came from; set by TagOrigin, unioned by Merge
	Counters []Metric        `json:"counters,omitempty"`
	Hists    []HistMetric    `json:"hists,omitempty"`
	Gates    []GateSnapshot  `json:"gates,omitempty"`
	Layers   []LayerSnapshot `json:"layers,omitempty"`
}

// Snapshot is a point-in-time copy of every registered group, sorted
// by group name.
type Snapshot struct {
	TakenUnixNano int64           `json:"taken_unix_nano"`
	Groups        []GroupSnapshot `json:"groups"`
}

// Group returns the named group, or nil.
func (s *Snapshot) Group(name string) *GroupSnapshot {
	for i := range s.Groups {
		if s.Groups[i].Name == name {
			return &s.Groups[i]
		}
	}
	return nil
}

// Source is anything that can contribute a group to a snapshot.
type Source interface {
	// GroupSnapshot copies the source's current state. Implementations
	// must be safe to call concurrently with recording.
	GroupSnapshot() GroupSnapshot
}

// Registry holds the observed engine instances of a process (or test).
// Registration replaces any previous source with the same group name,
// so benchmark sweeps that rebuild a counter per cell keep exactly one
// live group per lane instead of accreting dead ones.
type Registry struct {
	mu      sync.Mutex
	sources []Source
	names   []string
}

// Default is the process-wide registry; the public countnet surface
// and cmd/countbench register into it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds src under the given group name, replacing any earlier
// source registered with the same name.
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.names {
		if n == name {
			r.sources[i] = src
			return
		}
	}
	r.names = append(r.names, name)
	r.sources = append(r.sources, src)
}

// Snapshot copies every registered group, sorted by name. The group
// name recorded at Register time overrides the name the source
// reports, so one obs object may be registered under several lanes.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	sources := append([]Source(nil), r.sources...)
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	s := Snapshot{TakenUnixNano: time.Now().UnixNano()}
	for i, src := range sources {
		g := src.GroupSnapshot()
		g.Name = names[i]
		s.Groups = append(s.Groups, g)
	}
	sort.Slice(s.Groups, func(i, j int) bool { return s.Groups[i].Name < s.Groups[j].Name })
	return s
}
