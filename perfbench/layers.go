package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"countnet"
	"countnet/internal/core"
	"countnet/internal/counter"
	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
	"countnet/internal/runner"
)

// The layer suite times calls into each layer's public functions on
// their own, outside any workload loop. Every traced run measures every
// layer, so each per-layer metric is reported for each workload.

// layerItems is the number of timed items the suite splits its budget
// over; each gets an equal share.
const layerItems = 22

// sample calls f until budget has passed and it has at least minN
// samples, or until it has maxN; f returns one sample.
func sample(budget time.Duration, minN, maxN int, f func() float64) []float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < maxN && (len(xs) < minN || time.Since(start) < budget) {
		xs = append(xs, f())
	}
	return xs
}

// alternate samples each f in turn, round after round, until budget has
// passed and there are at least minN rounds. Drift then hits each f
// alike, so their ratio or difference stays fair.
func alternate(budget time.Duration, minN int, fs ...func() float64) [][]float64 {
	out := make([][]float64, len(fs))
	for start := time.Now(); len(out[0]) < minN || time.Since(start) < budget; {
		for i, f := range fs {
			out[i] = append(out[i], f())
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// allocsPer returns the heap allocations per call of f over k calls,
// counted process-wide, so server goroutines' allocations count too.
func allocsPer(k int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < k; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(k)
}

// measureLayers runs the whole suite within about budget. buildFactors
// names the network core.build_ms times: the traced workload's own.
func measureLayers(buildFactors []int, seed int64, budget time.Duration) (map[string]float64, error) {
	per := budget / layerItems
	m := map[string]float64{}
	var berr error
	m["core.build_ms"] = median(sample(per, 3, 1<<20, func() float64 {
		t0 := time.Now()
		n, err := core.L(buildFactors...)
		d := time.Since(t0)
		if err != nil {
			berr = err
		}
		sink = n
		return ms(d)
	}))
	if berr != nil {
		return nil, berr
	}
	if err := sortLayers(m, seed, per); err != nil {
		return nil, err
	}
	if err := countLayers(m, per); err != nil {
		return nil, err
	}
	if err := leaseLayers(m, per); err != nil {
		return nil, err
	}
	return m, nil
}

// sortLayers times the plan engine under countnet.Network.SortBatches on
// the sort_batch inputs.
func sortLayers(m map[string]float64, seed int64, per time.Duration) error {
	n, err := core.L(sortFactors...)
	if err != nil {
		return err
	}
	pub, err := countnet.NewL(sortFactors...)
	if err != nil {
		return err
	}
	sb := &sortBench{net: pub, sets: sortInputs(seed, n.Width()), work: makeBatches(n.Width())}
	m["runner.compile_plan_ms"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		p := runner.CompilePlan(n)
		d := time.Since(t0)
		sink = p
		return ms(d)
	}))
	plan := runner.CompilePlan(n)
	m["runner.apply_batches_us"] = median(sample(per, 5, 1<<20, func() float64 {
		sb.load()
		t0 := time.Now()
		plan.ApplyBatches(sb.work, 0)
		return us(time.Since(t0))
	}))
	// Their difference is the public wrapper.
	sorts := alternate(2*per, 5, func() float64 {
		sb.load()
		t0 := time.Now()
		plan.SortBatches(sb.work, sortWorkers)
		return us(time.Since(t0))
	}, func() float64 {
		sb.load()
		t0 := time.Now()
		if e := pub.SortBatches(sb.work, sortWorkers); e != nil {
			err = e
		}
		return us(time.Since(t0))
	})
	if err != nil {
		return err
	}
	m["runner.sort_batches_us"] = median(sorts[0])
	m["countnet.sort_batches_us"] = median(sorts[1])
	m["runner.parallel_speedup"] = m["runner.apply_batches_us"] / m["runner.sort_batches_us"]
	m["runner.ns_per_comparator"] = m["runner.apply_batches_us"] * 1e3 / float64(sortBatches*n.Size())
	m["countnet.wrapper_share"] = 1 - m["runner.sort_batches_us"]/m["countnet.sort_batches_us"]
	m["countnet.allocs_per_op"] = allocsPer(20, func() { sb.load(); _ = pub.SortBatches(sb.work, sortWorkers) })
	return nil
}

// callsPerSample amortizes the clock reads of a nanosecond-scale call.
const callsPerSample = 1024

// countLayers times the per-token counter path of count_token and
// count_observed, and the obs layer's recording and scraping.
func countLayers(m map[string]float64, per time.Duration) error {
	n, err := core.L(countFactors...)
	if err != nil {
		return err
	}
	width := n.Width()
	m["runner.compile_async_ms"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		a := runner.Compile(n)
		d := time.Since(t0)
		sink = a
		return ms(d)
	}))
	m["counter.new_ms"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		c := counter.NewNetworkCounter(n, false)
		d := time.Since(t0)
		sink = c
		return ms(d)
	}))

	off := counter.NewNetworkCounter(n, false).Handle(0)
	on := counter.NewNetworkCounter(n, false)
	reg := obs.NewRegistry()
	on.EnableObs(obsGroup, reg)
	onH := on.Handle(0)
	trav := runner.Compile(n)
	travObs := runner.Compile(n)
	travObs.EnableObs(obsGroup)
	var acc int64
	perCall := func(f func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < callsPerSample; i++ {
			f(i)
		}
		return float64(time.Since(t0)) / callsPerSample
	}
	// Obs-off and obs-on Next, plain and observed Traverse.
	paths := alternate(4*per, 5,
		func() float64 { return perCall(func(int) { acc += off.Next() }) },
		func() float64 { return perCall(func(int) { acc += onH.Next() }) },
		func() float64 { return perCall(func(i int) { acc += int64(trav.Traverse(i % width)) }) },
		func() float64 { return perCall(func(i int) { acc += int64(travObs.Traverse(i % width)) }) })
	m["counter.next_ns"] = median(paths[0])
	m["runner.traverse_ns"] = median(paths[2])
	m["counter.local_ns"] = m["counter.next_ns"] - m["runner.traverse_ns"]
	m["runner.traverse_obs_ns"] = median(paths[3])
	m["obs.overhead_ratio"] = median(paths[1]) / m["counter.next_ns"]

	pubNet, err := countnet.NewL(countFactors...)
	if err != nil {
		return err
	}
	ph := countnet.NewCounter(pubNet).Handle(0)
	m["counter.allocs_per_op"] = allocsPer(1000, func() {
		for i := 0; i < drawsPerOp; i++ {
			acc += ph.Next()
		}
	})

	m["obs.now_ns"] = median(sample(per, 5, 1<<20, func() float64 {
		return perCall(func(int) { acc += obs.Now() })
	}))
	h := obs.NewHist()
	m["obs.hist_observe_ns"] = median(sample(per, 5, 1<<20, func() float64 {
		return perCall(func(i int) { h.Observe(int64(i)) })
	}))
	m["obs.snapshot_us"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		s := reg.Snapshot()
		d := time.Since(t0)
		sink = s
		return us(d)
	}))
	var perr error
	m["obs.prometheus_us"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			perr = err
		}
		return us(time.Since(t0))
	}))
	sink = acc
	return perr
}

// Bounds on isolated draws, which grow a hub's issue log.
const (
	maxHubDraws    = 1024
	maxClientDraws = 1024
)

// leaseLayers times the lease path of lease_bulk layer by layer: the
// HTTP round trip, the hub, its combining counter, the batched network
// traversal, and the JSON encode and decode of one lease payload.
func leaseLayers(m map[string]float64, per time.Duration) error {
	useAbortiveClose()
	n, err := core.L(countFactors...)
	if err != nil {
		return err
	}
	m["syncsrv.new_hub_ms"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		h := syncsrv.NewHub(n)
		d := time.Since(t0)
		sink = h
		return ms(d)
	}))
	var serr error
	m["syncsrv.server_start_ms"] = median(sample(per, 5, 1<<20, func() float64 {
		srv := syncsrv.NewServer(syncsrv.NewHub(n))
		t0 := time.Now()
		err := srv.Start("127.0.0.1:0")
		d := time.Since(t0)
		if err == nil {
			err = stopServer(srv)
		}
		if err != nil {
			serr = err
		}
		return ms(d)
	}))
	if serr != nil {
		return serr
	}

	// One server for the first draw and the client draws: the first
	// draw opens the connection, the rest reuse it.
	hub, srv, err := startServer(n)
	if err != nil {
		return err
	}
	defer stopServer(srv)
	defer closeClientConns()
	if _, err := hub.Register(leaseWorker); err != nil {
		return err
	}
	cl := syncsrv.NewClient(srv.URL())
	t0 := time.Now()
	_, err = cl.Draw(leaseWorker, leaseSize)
	m["syncsrv.first_draw_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	var derr error
	m["syncsrv.client_draw_us"] = median(sample(per, 5, maxClientDraws, func() float64 {
		t0 := time.Now()
		_, err := cl.Draw(leaseWorker, leaseSize)
		d := time.Since(t0)
		if err != nil {
			derr = err
		}
		return us(d)
	}))
	m["syncsrv.allocs_per_lease"] = allocsPer(20, func() {
		if _, err := cl.Draw(leaseWorker, leaseSize); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return fmt.Errorf("client draw: %w", derr)
	}

	h2 := syncsrv.NewHub(n)
	if _, err := h2.Register(leaseWorker); err != nil {
		return err
	}
	m["syncsrv.hub_draw_us"] = median(sample(per, 5, maxHubDraws, func() float64 {
		t0 := time.Now()
		_, err := h2.Draw(leaseWorker, leaseSize)
		d := time.Since(t0)
		if err != nil {
			derr = err
		}
		return us(d)
	}))
	if derr != nil {
		return fmt.Errorf("hub draw: %w", derr)
	}

	const blockCalls = 16 // amortizes the clock reads of a microsecond-scale call
	cc := counter.NewCombiningCounter(n)
	dst := make([]int64, leaseSize)
	m["counter.combining_next_block_us"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		for i := 0; i < blockCalls; i++ {
			cc.NextBlock(dst)
		}
		return us(time.Since(t0)) / blockCalls
	}))
	a := runner.Compile(n)
	bs := a.NewBatchScratch()
	counts := make([]int64, n.Width())
	for i := range counts {
		counts[i] = int64(leaseSize / n.Width())
	}
	exits := make([]int64, n.Width())
	m["runner.traverse_batch_us"] = median(sample(per, 5, 1<<20, func() float64 {
		t0 := time.Now()
		for i := 0; i < blockCalls; i++ {
			a.TraverseBatchInto(exits, counts, bs)
		}
		return us(time.Since(t0)) / blockCalls
	}))

	// The server encodes a lease as writeJSON does and the client
	// decodes it as Client.Draw does. Time both on a lease from the
	// middle of an epoch, whose values have the digits of a typical one.
	cc = counter.NewCombiningCounter(n)
	cc.NextBlock(make([]int64, leaseSize*leasesPerEpoch/2))
	vals := make([]int64, leaseSize)
	cc.NextBlock(vals)
	var buf bytes.Buffer
	var jerr error
	m["syncsrv.json_encode_us"] = median(sample(per, 5, 1<<20, func() float64 {
		buf.Reset()
		t0 := time.Now()
		err := json.NewEncoder(&buf).Encode(map[string][]int64{"values": vals})
		d := time.Since(t0)
		if err != nil {
			jerr = err
		}
		return us(d)
	}))
	payload := append([]byte(nil), buf.Bytes()...)
	m["syncsrv.json_decode_us"] = median(sample(per, 5, 1<<20, func() float64 {
		var out struct {
			Values []int64 `json:"values"`
		}
		t0 := time.Now()
		err := json.Unmarshal(payload, &out)
		d := time.Since(t0)
		if err != nil || len(out.Values) != leaseSize {
			jerr = fmt.Errorf("decoded %d values: %v", len(out.Values), err)
		}
		return us(d)
	}))
	if jerr != nil {
		return fmt.Errorf("json: %w", jerr)
	}
	m["syncsrv.http_residual_us"] = m["syncsrv.client_draw_us"] - m["syncsrv.hub_draw_us"] -
		m["syncsrv.json_encode_us"] - m["syncsrv.json_decode_us"]
	m["syncsrv.payload_bytes_per_value"] = float64(len(payload)) / leaseSize
	return nil
}
