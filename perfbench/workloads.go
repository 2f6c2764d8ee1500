package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"countnet"
	"countnet/internal/core"
	"countnet/internal/harness"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/network"
	"countnet/internal/obs"
)

// Workload shapes. README.md gives the reason for each number.
const (
	sortBatches    = 64   // batches per sort_batch op
	sortWorkers    = 2    // SortBatches workers; they share nothing mutable
	sortInputSets  = 4    // seeded input sets the sort loop cycles through
	drawsPerOp     = 64   // Next calls per count op
	drawsPerScrape = 8192 // count_observed draws between scrapes
	leaseSize      = 1024 // values per lease_bulk Client.Draw
	leasesPerEpoch = 512  // leases one hub serves before it is checked and replaced
	obsGroup       = "perfbench"
	leaseWorker    = "w0"
)

// sortFactors and countFactors are the networks under test: L(3,4,5,6)
// has width 360, depth 72 and gates of width 2..6; L(4,4) has width 16.
var (
	sortFactors  = []int{3, 4, 5, 6}
	countFactors = []int{4, 4}
)

// sink keeps set-up results alive so the compiler cannot drop them.
var sink any

// loopStats is the tally of one closed loop. With sliceLen set, the
// window is also cut into slices of that much op time, so the reported
// figures can be medians over slices: a host that stalls the run for
// part of the window then moves them less than it moves pooled figures.
type loopStats struct {
	lat      []float64     // latency of each op, ns (scrapes excluded)
	busy     time.Duration // measurement window: time spent inside ops and scrapes
	values   int64         // values sorted, drawn or leased
	ops      int64         // ops and scrapes attempted
	failed   int64         // ops and scrapes whose output was wrong
	sliceLen time.Duration
	cuts     []sliceEnd
}

// sliceEnd is the tally when a slice closed.
type sliceEnd struct {
	busy   time.Duration
	values int64
	lats   int
}

// record tallies one op.
func (s *loopStats) record(d time.Duration, values int64) {
	s.lat = append(s.lat, float64(d))
	s.ops++
	s.tick(d, values)
}

// tick adds op time to the window and closes a slice when one is full.
func (s *loopStats) tick(d time.Duration, values int64) {
	s.busy += d
	s.values += values
	if s.sliceLen > 0 && s.busy >= time.Duration(len(s.cuts)+1)*s.sliceLen {
		s.cuts = append(s.cuts, sliceEnd{s.busy, s.values, len(s.lat)})
	}
}

// rate is the median over slices of values per second of op time, or
// the pooled rate of a window without slices.
func (s *loopStats) rate() float64 {
	var rs []float64
	var prev sliceEnd
	for _, c := range s.cuts {
		rs = append(rs, float64(c.values-prev.values)/(c.busy-prev.busy).Seconds())
		prev = c
	}
	if len(rs) == 0 {
		return float64(s.values) / s.busy.Seconds()
	}
	return median(rs)
}

// latency is the median over slices of each slice's p-th percentile op
// latency. If a slice holds too few ops for it, the percentile is taken
// over the whole window instead.
func (s *loopStats) latency(p float64) (float64, error) {
	var xs []float64
	prev := 0
	for _, c := range s.cuts {
		v, err := percentile(s.lat[prev:c.lats], p)
		if err != nil {
			return percentile(s.lat, p)
		}
		xs = append(xs, v)
		prev = c.lats
	}
	if len(xs) == 0 {
		return percentile(s.lat, p)
	}
	return median(xs), nil
}

// bench is one workload's system under test, set up and ready to loop.
type bench interface {
	// step runs one op, times it, and checks its output outside the
	// timed interval. A non-nil tracer records the op's spans.
	step(tr *tracer, st *loopStats)
	// verify runs the end-of-run quiescence check.
	verify(st *loopStats) error
	close()
}

// workload is one benchmark workload: how to set its system up once
// (timed over a window for setup_s), how to open it for the loop, and
// which isolated layer timings (from the layer suite, in ns per op)
// should add up to its op. README.md gives the reason for each.
type workload struct {
	name     string
	factors  []int
	setup    func() error
	open     func(seed int64) (bench, error)
	isolated func(layers map[string]float64) float64
}

var workloads = []workload{
	{"sort_batch", sortFactors, setupSort, openSort, func(m map[string]float64) float64 {
		return m["runner.sort_batches_us"] * 1e3
	}},
	{"count_token", countFactors, setupCount(false), openCount(false), func(m map[string]float64) float64 {
		return drawsPerOp * (m["runner.traverse_ns"] + m["counter.local_ns"])
	}},
	{"count_observed", countFactors, setupCount(true), openCount(true), func(m map[string]float64) float64 {
		// nextOnObs: two clock reads and a histogram sample around an
		// observed traversal and the local counter.
		return drawsPerOp * (m["runner.traverse_obs_ns"] + m["counter.local_ns"] +
			2*m["obs.now_ns"] + m["obs.hist_observe_ns"])
	}},
	{"lease_bulk", countFactors, setupLease, openLease, func(m map[string]float64) float64 {
		return (m["syncsrv.hub_draw_us"] + m["syncsrv.json_encode_us"] + m["syncsrv.json_decode_us"]) * 1e3
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure loops b until st's window has grown by d of op time.
func measure(b bench, st *loopStats, d time.Duration, tr *tracer) {
	for end := st.busy + d; st.busy < end; {
		b.step(tr, st)
	}
}

// ---- sort_batch ----

func setupSort() error {
	n, err := countnet.NewL(sortFactors...)
	if err != nil {
		return err
	}
	// The first Sort compiles the plan every later sort reuses.
	_, err = n.Sort(make([]int64, n.Width()))
	sink = n
	return err
}

type sortInput struct {
	batches [][]int64
	sums    []checksum
}

type sortBench struct {
	net  *countnet.Network
	sets []sortInput
	work [][]int64
	next int
}

func openSort(seed int64) (bench, error) {
	n, err := countnet.NewL(sortFactors...)
	if err != nil {
		return nil, err
	}
	return &sortBench{net: n, sets: sortInputs(seed, n.Width()), work: makeBatches(n.Width())}, nil
}

func makeBatches(width int) [][]int64 {
	b := make([][]int64, sortBatches)
	for i := range b {
		b[i] = make([]int64, width)
	}
	return b
}

// sortInputs draws the seeded input sets and their checksums.
func sortInputs(seed int64, width int) []sortInput {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]sortInput, sortInputSets)
	for s := range sets {
		sets[s].batches = makeBatches(width)
		for _, b := range sets[s].batches {
			for i := range b {
				b[i] = rng.Int63()
			}
			sets[s].sums = append(sets[s].sums, batchChecksum(b))
		}
	}
	return sets
}

// load copies the next input set into the working batches.
func (b *sortBench) load() *sortInput {
	in := &b.sets[b.next%len(b.sets)]
	b.next++
	for i := range b.work {
		copy(b.work[i], in.batches[i])
	}
	return in
}

func (b *sortBench) step(tr *tracer, st *loopStats) {
	in := b.load()
	t0 := time.Now()
	err := b.net.SortBatches(b.work, sortWorkers)
	t1 := time.Now()
	tr.add(tr.id(), 0, "countnet.Network.SortBatches", t0, t1)
	st.record(t1.Sub(t0), int64(len(b.work)*b.net.Width()))
	if err != nil {
		st.failed++
		return
	}
	for i, w := range b.work {
		if checkSorted(w, in.sums[i]) != nil {
			st.failed++
			return
		}
	}
}

func (b *sortBench) verify(*loopStats) error { return nil }
func (b *sortBench) close()                  {}

// ---- count_token and count_observed ----

// newCountHandle builds the count workloads' counter and its handle.
func newCountHandle(observed bool) (*countnet.CounterHandle, error) {
	n, err := countnet.NewL(countFactors...)
	if err != nil {
		return nil, err
	}
	var opts []countnet.Option
	if observed {
		// The same group name each time: the registry keeps one group.
		opts = append(opts, countnet.WithObservability(obsGroup))
	}
	return countnet.NewCounter(n, opts...).Handle(0), nil
}

func setupCount(observed bool) func() error {
	return func() error {
		h, err := newCountHandle(observed)
		sink = h
		return err
	}
}

type countBench struct {
	h        *countnet.CounterHandle
	observed bool
	buf      [drawsPerOp]int64
	seen     bitset
	drawn    int64
}

func openCount(observed bool) func(int64) (bench, error) {
	return func(int64) (bench, error) {
		// Built after the set-up window, so its group is the one the
		// registry holds.
		h, err := newCountHandle(observed)
		if err != nil {
			return nil, err
		}
		return &countBench{h: h, observed: observed}, nil
	}
}

func (b *countBench) step(tr *tracer, st *loopStats) {
	var d time.Duration
	if tr == nil {
		t0 := time.Now()
		for i := range b.buf {
			b.buf[i] = b.h.Next()
		}
		d = time.Since(t0)
	} else {
		root := tr.id()
		t0 := time.Now()
		for i := range b.buf {
			s := time.Now()
			b.buf[i] = b.h.Next()
			tr.add(tr.id(), root, "countnet.CounterHandle.Next", s, time.Now())
		}
		t1 := time.Now()
		tr.add(root, 0, "count.op", t0, t1)
		d = t1.Sub(t0)
	}
	st.record(d, drawsPerOp)
	ok := true
	for _, v := range b.buf {
		ok = b.seen.add(v) && ok
	}
	if !ok {
		st.failed++
	}
	b.drawn += drawsPerOp
	if b.observed && b.drawn%drawsPerScrape == 0 {
		b.scrape(tr, st)
	}
}

// scrape reads the registry the way a metrics endpoint does. It counts
// toward the window and the attempted ops, not toward draw latency,
// and its snapshot must report exactly the values drawn so far.
func (b *countBench) scrape(tr *tracer, st *loopStats) {
	root := tr.id()
	t0 := time.Now()
	snap := obs.Default.Snapshot()
	t1 := time.Now()
	err := obs.Default.WritePrometheus(io.Discard)
	t2 := time.Now()
	tr.add(tr.id(), root, "obs.Registry.Snapshot", t0, t1)
	tr.add(tr.id(), root, "obs.Registry.WritePrometheus", t1, t2)
	tr.add(root, 0, "count.scrape", t0, t2)
	st.tick(t2.Sub(t0), 0)
	st.ops++
	if err != nil || scrapedOps(snap) != b.drawn {
		st.failed++
	}
}

// scrapedOps is the "ops" counter of the workload's group, -1 if absent.
func scrapedOps(s obs.Snapshot) int64 {
	if g := s.Group(obsGroup); g != nil {
		for _, c := range g.Counters {
			if c.Name == "ops" {
				return c.Value
			}
		}
	}
	return -1
}

func (b *countBench) verify(st *loopStats) error {
	if b.seen.n != b.drawn {
		return fmt.Errorf("%d distinct values of %d drawn", b.seen.n, b.drawn)
	}
	return b.seen.gapFree()
}

func (b *countBench) close() {}

// ---- lease_bulk ----

// dials counts TCP connections the lease client opens; a held
// keep-alive connection means one per epoch, not one per lease.
var dials atomic.Int64

var abortiveCloseOnce sync.Once

// useAbortiveClose makes every connection syncsrv.Client opens (it uses
// http.DefaultTransport) close with a reset instead of a FIN. Each
// epoch's one connection then leaves no TIME_WAIT socket behind, so a
// run cannot slow later runs' server set-up (rule 5 in README.md).
func useAbortiveClose() {
	abortiveCloseOnce.Do(func() {
		tr := http.DefaultTransport.(*http.Transport)
		d := &net.Dialer{}
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			dials.Add(1)
			if tc, ok := c.(*net.TCPConn); ok {
				if err := tc.SetLinger(0); err != nil {
					c.Close()
					return nil, err
				}
			}
			return c, nil
		}
	})
}

func closeClientConns() { http.DefaultTransport.(*http.Transport).CloseIdleConnections() }

// startServer builds a hub and serves it on a loopback ephemeral port.
func startServer(n *network.Network) (*syncsrv.Hub, *syncsrv.Server, error) {
	hub := syncsrv.NewHub(n)
	srv := syncsrv.NewServer(hub)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	return hub, srv, nil
}

func stopServer(srv *syncsrv.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// setupLease builds and serves a hub, then stops it, opening no
// connection: repeated set-ups must not churn TCP.
func setupLease() error {
	n, err := core.L(countFactors...)
	if err != nil {
		return err
	}
	_, srv, err := startServer(n)
	if err != nil {
		return err
	}
	return stopServer(srv)
}

// leaseEpoch is one hub serving one client over one connection.
type leaseEpoch struct {
	hub    *syncsrv.Hub
	srv    *syncsrv.Server
	cl     *syncsrv.Client
	got    []int64
	leases int
}

// leaseBench runs lease_bulk in epochs of leasesPerEpoch leases. Each
// epoch's hub is checked and replaced, because a hub's issue log grows
// by 8 B per leased value: one hub per run would make memory, append
// cost and the final check grow with run length.
type leaseBench struct {
	net    *network.Network
	ep     *leaseEpoch
	epochs int
	err    error // the last failed epoch check or shutdown
}

func openLease(int64) (bench, error) {
	useAbortiveClose()
	n, err := core.L(countFactors...)
	if err != nil {
		return nil, err
	}
	return &leaseBench{net: n}, nil
}

func (b *leaseBench) openEpoch() error {
	hub, srv, err := startServer(b.net)
	if err != nil {
		return err
	}
	cl := syncsrv.NewClient(srv.URL())
	// Registering opens the epoch's keep-alive connection.
	if _, err := cl.Register(leaseWorker); err != nil {
		stopServer(srv)
		return err
	}
	b.ep = &leaseEpoch{hub: hub, srv: srv, cl: cl, got: make([]int64, 0, leaseSize*leasesPerEpoch)}
	b.epochs++
	return nil
}

func (b *leaseBench) step(tr *tracer, st *loopStats) {
	if b.ep == nil {
		// A failed open counts as a failed op with the time it took, so
		// the window still fills and the run ends.
		t0 := time.Now()
		if err := b.openEpoch(); err != nil {
			b.err = err
			st.record(time.Since(t0), 0)
			st.failed++
			return
		}
	}
	t0 := time.Now()
	vals, err := b.ep.cl.Draw(leaseWorker, leaseSize)
	t1 := time.Now()
	tr.add(tr.id(), 0, "syncsrv.Client.Draw", t0, t1)
	st.record(t1.Sub(t0), leaseSize)
	if err != nil || len(vals) != leaseSize {
		st.failed++
	}
	b.ep.got = append(b.ep.got, vals...)
	if b.ep.leases++; b.ep.leases == leasesPerEpoch {
		// A failed check is counted in st; verify reports the last.
		if err := b.closeEpoch(st); err != nil {
			b.err = err
		}
	}
}

// closeEpoch checks the epoch's leases against the hub's issue log and
// stops its server. A failed check fails every lease of the epoch.
func (b *leaseBench) closeEpoch(st *loopStats) error {
	ep := b.ep
	b.ep = nil
	err := harness.CheckRun(b.net.Width(), ep.hub.IssueLog(), map[string][]int64{leaseWorker: ep.got}, nil)
	if err != nil {
		st.failed += int64(ep.leases)
	}
	closeClientConns()
	if serr := stopServer(ep.srv); err == nil && serr != nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	return err
}

func (b *leaseBench) verify(st *loopStats) error {
	if b.ep != nil {
		if err := b.closeEpoch(st); err != nil {
			return err
		}
	}
	return b.err
}

func (b *leaseBench) close() {
	if b.ep != nil {
		closeClientConns()
		stopServer(b.ep.srv)
		b.ep = nil
	}
}
