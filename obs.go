package countnet

// Public surface of the observability layer (internal/obs): options
// that attach zero-overhead-when-off instrumentation to counters and
// pools, and package-level accessors over the default registry. See
// docs/OBSERVABILITY.md for the metrics and how to read them against
// the paper's contention model.

import (
	"encoding/json"
	"io"
	"net/http"

	"countnet/internal/obs"
)

// Option configures construction of the package's concurrent
// structures (NewCounter, NewCombiningCounter, NewPool).
type Option func(*options)

type options struct {
	obsName string
}

func buildOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// WithObservability enables instrumentation on the constructed
// structure, registered under name in the package's default
// observability registry (exposed by ObsHandler, ObsSnapshotJSON and
// WriteObsPrometheus). Observed structures report per-balancer and
// per-layer token counts, contention events, and latency histograms —
// all allocation-free and safe to snapshot concurrently. Counts (ops,
// per-balancer tokens, contention, a pool's puts and gets) are exact
// and read from state the structure keeps anyway. Only the engine that
// owns a network times it: a per-token counter times one value in 64
// (obs.SampleEvery), picked by a tick its handle owns, and records
// that value's next_ns and traverse_ns from one start, so the other
// values read no clock; the histograms count samples, their snapshots
// carry the period, and the Prometheus exposition scales them by it.
// A combining counter times every combine pass. Structures built
// without this option pay a single nil pointer check per operation
// and record nothing.
//
// Registering a second structure under an existing name replaces the
// previous group in the registry (the old structure keeps recording
// into its own detached state).
func WithObservability(name string) Option {
	return func(o *options) { o.obsName = name }
}

// ObsHandler returns an http.Handler for the default observability
// registry serving "/snapshot" (JSON), "/metrics" (Prometheus text
// format) and "/debug/vars" (expvar), with an index at "/".
func ObsHandler() http.Handler { return obs.Default.Handler() }

// ObsSnapshotJSON returns an indented JSON snapshot of every observed
// structure in the default registry — the same document ObsHandler
// serves at /snapshot.
func ObsSnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(obs.Default.Snapshot(), "", "  ")
}

// WriteObsPrometheus writes the default registry's state to w in the
// Prometheus text exposition format.
func WriteObsPrometheus(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// PublishObsExpvar publishes the default registry's snapshot as an
// expvar under the given name, once per process; it reports whether
// the name was published now (false if already taken).
func PublishObsExpvar(name string) bool { return obs.Default.PublishExpvar(name) }
