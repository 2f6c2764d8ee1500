// Package syncsrv is the coordination service of the multi-process
// traffic harness (internal/harness): a run-scoped HTTP server that
// worker processes register with, phase-synchronize on (barriers), and
// lease blocks of Fetch&Increment values from (draws), all backed by
// one shared counting network.
//
// The barrier arrival path dogfoods the paper's own application: every
// Barrier(state, n) arrival draws a ticket from a counting-network
// counter, so the harness's phase synchronization is itself loading
// the data structure under test. Each state is a counter.Barrier:
// release bookkeeping is arrival-ordered (counter's
// TestTicketGenerationRefuted shows why ticket-ordered release would
// deadlock), and Quiesce checks the tickets' gap-free contract.
// The draw endpoint serves value blocks from a combining counter over
// the same network. A lease travels and is logged as runs: each
// counter.Run is the share of one exit wire, Start, Start+w, … for N
// values with stride w the network's width, so a lease of any size is
// at most w runs on the wire,
//
//	{"stride":w,"runs":[[start,n],...]}
//
// and the client expands them only on arrival. Neither end runs
// encoding/json: the server appends each reply with strconv, and the
// client reads at most a bounded number of bytes and scans them
// straight into runs. It accepts JSON whitespace, either key order and
// a missing key as zero, and rejects unknown or repeated keys,
// non-integer or overflowing numbers, leading zeros, more than MaxDraw
// runs and trailing bytes, all before it checks the lease against its
// request. The hub keeps a per-worker issue log of the same runs, so
// its memory grows with leases × w rather than with values; IssueLog
// expands it for the post-run checker (harness.CheckRun), which
// cross-checks it against what the worker processes report having
// received.
package syncsrv

import (
	"errors"
	"fmt"
	"sync"

	"countnet/internal/counter"
	"countnet/internal/network"
	"countnet/internal/obs"
)

// MaxDraw is the largest number of values one Draw may lease. The
// lease is allocated up front, so an unbounded n would let one request
// exhaust the server's memory.
const MaxDraw = 1 << 16

// Sentinel errors, checked with errors.Is; the server maps them to
// HTTP status codes.
var (
	// ErrClosed reports a call on a hub that has been closed.
	ErrClosed = errors.New("syncsrv: hub closed")
	// ErrEmptyWorker reports a registration without a worker id.
	ErrEmptyWorker = errors.New("syncsrv: empty worker id")
	// ErrDuplicateWorker reports a second registration of one id.
	ErrDuplicateWorker = errors.New("syncsrv: worker already registered")
)

// Hub is the in-memory coordination state behind one harness run. All
// methods are safe for concurrent use; a blocked Barrier returns with
// an error after Close.
type Hub struct {
	net  *network.Network
	draw *counter.CombiningCounter // shared value source for /draw leases

	mu       sync.Mutex
	closed   bool
	barriers map[string]*counter.Barrier
	issued   map[string][]counter.Run // worker -> runs leased to it, in issue order
	workers  map[string]bool
}

// NewHub builds a hub whose barriers and draw counter run on the given
// counting network.
func NewHub(net *network.Network) *Hub {
	return &Hub{
		net:      net,
		draw:     counter.NewCombiningCounter(net),
		barriers: map[string]*counter.Barrier{},
		issued:   map[string][]counter.Run{},
		workers:  map[string]bool{},
	}
}

// Close releases every blocked Barrier call with an error. The hub is
// unusable afterwards.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, b := range h.barriers {
		b.Close()
	}
}

// Quiesce verifies every barrier state's counting-network tickets now
// that the run is at rest: each must have issued exactly 0..arrivals-1
// (the gap-free quiescence contract). Call it after all barrier calls
// have returned, before Close.
func (h *Hub) Quiesce() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for state, b := range h.barriers {
		if err := b.Quiesce(); err != nil {
			obs.RecordFlight(obs.FlightOracleViolation, int64(len(h.barriers)), 0)
			return fmt.Errorf("syncsrv: barrier %q: %w", state, err)
		}
	}
	return nil
}

// Register records a worker id. A duplicate registration is an error
// (ErrDuplicateWorker): worker identities scope the issue log, so two
// processes sharing one id would corrupt the post-run cross-check.
func (h *Hub) Register(worker string) (int, error) {
	if worker == "" {
		return 0, ErrEmptyWorker
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	if h.workers[worker] {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateWorker, worker)
	}
	h.workers[worker] = true
	return len(h.workers), nil
}

// Barrier blocks until n parties (including the caller) have arrived
// at the named state and returns the caller's 0-based generation. The
// first arrival at a state fixes its party count; later arrivals must
// pass the same n. Arrival tickets come from a counting-network
// counter dedicated to the state. A caller that Close releases gets
// ErrClosed.
func (h *Hub) Barrier(state string, n int) (int64, error) {
	b, err := h.barrier(state, n)
	if err != nil {
		return 0, err
	}
	gen, err := b.Await()
	if err != nil { // only Close fails an arrival
		return gen, fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return gen, nil
}

// barrier returns the state's barrier, creating it on first arrival.
func (h *Hub) barrier(state string, n int) (*counter.Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("syncsrv: barrier %q with %d parties", state, n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	b, ok := h.barriers[state]
	if !ok {
		b = counter.NewBarrier(n, h.net)
		h.barriers[state] = b
	}
	if b.Parties() != n {
		return nil, fmt.Errorf("syncsrv: barrier %q opened for %d parties, arrival wants %d", state, b.Parties(), n)
	}
	return b, nil
}

// Draw leases n fresh values to the worker from the shared combining
// counter, as at most w runs of stride w (the network's width), and
// records the runs in the issue log. The values are distinct across all
// workers and gap-free once the run quiesces — the guarantee the
// post-run checker verifies end to end. n must lie in 1..MaxDraw.
func (h *Hub) Draw(worker string, n int) ([]counter.Run, error) {
	if n < 1 || n > MaxDraw {
		return nil, fmt.Errorf("syncsrv: draw of %d values (want 1..%d)", n, MaxDraw)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	if !h.workers[worker] {
		h.mu.Unlock()
		return nil, fmt.Errorf("syncsrv: draw from unregistered worker %q", worker)
	}
	h.mu.Unlock()

	// The network traversal runs outside h.mu: the whole point of the
	// combining counter is that concurrent draws contend on balancers,
	// not on one lock.
	runs := h.draw.NextRuns(n, make([]counter.Run, 0, h.net.Width()))
	obs.RecordFlight(obs.FlightBlockLease, runs[0].Start, int64(n))

	h.mu.Lock()
	h.issued[worker] = append(h.issued[worker], runs...)
	h.mu.Unlock()
	return runs, nil
}

// IssueLog returns the per-worker issue log expanded to values, in
// issue order.
func (h *Hub) IssueLog() map[string][]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]int64, len(h.issued))
	stride := int64(h.net.Width())
	for w, runs := range h.issued {
		var n int64
		for _, r := range runs {
			n += r.N
		}
		vals := make([]int64, 0, n)
		for _, r := range runs {
			vals = r.AppendValues(vals, stride)
		}
		out[w] = vals
	}
	return out
}
