package countnet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"countnet/internal/network"
)

func TestNewKLR(t *testing.T) {
	k, err := NewK(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k.Width() != 24 || k.Name() != "K(2,3,4)" {
		t.Errorf("K: %v", k)
	}
	l, err := NewL(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxBalancerWidth() > 4 {
		t.Errorf("L balancer width %d > 4", l.MaxBalancerWidth())
	}
	r, err := NewR(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() > 16 {
		t.Errorf("R depth %d", r.Depth())
	}
	if _, err := NewK(1); err == nil {
		t.Error("NewK(1) accepted")
	}
	if _, err := NewL(); err == nil {
		t.Error("NewL() accepted")
	}
	if _, err := NewR(2, 1); err == nil {
		t.Error("NewR(2,1) accepted")
	}
}

func TestBaselineConstructors(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func(int) (*Network, error)
		w    int
		ok   bool
	}{
		{"bitonic", NewBitonic, 8, true},
		{"bitonic", NewBitonic, 6, false},
		{"periodic", NewPeriodic, 8, true},
		{"oddeven", NewOddEvenMergeSort, 16, true},
		{"oddeven", NewOddEvenMergeSort, 12, false},
		{"bubble", NewBubble, 5, true},
	} {
		n, err := c.mk(c.w)
		if c.ok && err != nil {
			t.Errorf("%s(%d): %v", c.name, c.w, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s(%d) accepted", c.name, c.w)
		}
		if err == nil && n.Width() != c.w {
			t.Errorf("%s(%d) width %d", c.name, c.w, n.Width())
		}
	}
}

func TestSort(t *testing.T) {
	n, err := NewL(2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, 30)
	for i := range in {
		in[i] = int64((i * 17) % 30)
	}
	out, err := n.Sort(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != int64(i) {
			t.Fatalf("Sort = %v", out)
		}
	}
	if _, err := n.Sort([]int64{1, 2}); err == nil {
		t.Error("short batch accepted")
	}
}

// TestSortedNetworkFreedByNextGC: a Network dropped after Sort is
// garbage at the next collection. The runtime holds a used sync.Pool
// for up to two collections, so the plan's scratch pool must not hold
// the network and its plan with it.
func TestSortedNetworkFreedByNextGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		n, err := NewL(2, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Sort(make([]int64, n.Width())); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(n.inner, func(*network.Network) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped network outlived the next garbage collection")
	}
}

func TestSortFunc(t *testing.T) {
	n, err := NewK(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"fig", "apple", "egg", "date", "banana", "cherry"}
	out, err := SortFunc(n, words, func(a, b string) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(out) {
		t.Errorf("SortFunc = %v", out)
	}
	if _, err := SortFunc(n, []string{"x"}, func(a, b string) bool { return a < b }); err == nil {
		t.Error("short batch accepted")
	}
}

func TestStep(t *testing.T) {
	n, err := NewK(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.Step([]int64{10, 0, 0, 0, 0, 0, 0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 1; i < len(out); i++ {
		if d := out[i-1] - out[i]; d < 0 || d > 1 {
			t.Fatalf("Step output %v not step", out)
		}
	}
	for _, v := range out {
		total += v
	}
	if total != 13 {
		t.Fatalf("token loss: %v", out)
	}
	if _, err := n.Step([]int64{1}); err == nil {
		t.Error("short input accepted")
	}
}

func TestVerifyMethods(t *testing.T) {
	good, _ := NewL(2, 3)
	if err := good.VerifyCounting(1); err != nil {
		t.Errorf("L(2,3) counting: %v", err)
	}
	if err := good.VerifySorting(1); err != nil {
		t.Errorf("L(2,3) sorting: %v", err)
	}
	bad, _ := NewBubble(4)
	if err := bad.VerifyCounting(1); err == nil {
		t.Error("bubble verified as counting")
	}
	if err := bad.VerifySorting(1); err != nil {
		t.Errorf("bubble sorting: %v", err)
	}
}

func TestCounterEndToEnd(t *testing.T) {
	n, err := NewL(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(n)
	var mu sync.Mutex
	var all []int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := c.Handle(g)
			local := make([]int64, 400)
			for i := range local {
				local[i] = h.Next()
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("values not gap-free at %d: %d", i, v)
		}
	}
	if v := c.Next(); v != int64(len(all)) {
		t.Errorf("shared Next after quiescence = %d, want %d", v, len(all))
	}
}

func TestJSONFacade(t *testing.T) {
	n, err := NewK(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Width() != 6 || back.Depth() != n.Depth() {
		t.Errorf("round trip: %v", back.String())
	}
	// The round-tripped network still works.
	out, err := back.Step([]int64{4, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int64{1, 1, 1, 1, 0, 0}) {
		t.Errorf("round-tripped Step = %v", out)
	}
}

func TestDiagramOutputs(t *testing.T) {
	n, _ := NewK(2, 2)
	if !strings.Contains(n.DOT(), "digraph") {
		t.Error("DOT malformed")
	}
	if !strings.Contains(n.ASCII(), "layer") {
		t.Error("ASCII malformed")
	}
	if !strings.Contains(n.Diagram(), "●") {
		t.Error("Diagram malformed")
	}
	if !strings.Contains(n.String(), "K(2,2)") {
		t.Error("String malformed")
	}
	hist := n.BalancerWidthHistogram()
	if hist[4] != 1 || len(hist) != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

func TestBarrierFacade(t *testing.T) {
	n, err := NewL(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const parties, gens = 4, 10
	b := NewBarrier(n, parties)
	var wg sync.WaitGroup
	fail := make(chan string, parties)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := int64(0); g < gens; g++ {
				if got := b.Await(); got != g {
					fail <- fmt.Sprintf("generation %d, want %d", got, g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

func TestTextFormatFacade(t *testing.T) {
	n, err := NewL(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	text := n.FormatText()
	back, err := ParseTextNetwork("reparsed", 6, text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Size() != n.Size() || back.Depth() != n.Depth() {
		t.Errorf("text round trip: %v vs %v", back, n)
	}
	if err := back.VerifyCounting(3); err != nil {
		t.Errorf("reparsed network: %v", err)
	}
	if _, err := ParseTextNetwork("bad", 2, "0:9"); err == nil {
		t.Error("bad text accepted")
	}
	// The conventional notation parses directly.
	classic, err := ParseTextNetwork("classic", 4, "0:1 2:3\n0:3 1:2\n0:1 2:3\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := classic.VerifySorting(1); err != nil {
		t.Errorf("classic bitonic: %v", err)
	}
}

func TestVerilogFacade(t *testing.T) {
	n, err := NewL(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src, err := n.Verilog("net8", 16)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "module net8") {
		t.Error("module name missing")
	}
	wide, _ := NewK(3, 3)
	if _, err := wide.Verilog("x", 8); err == nil {
		t.Error("9-balancer network accepted for verilog")
	}
}

func TestGatesIntrospection(t *testing.T) {
	n, err := NewK(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	gates := n.Gates()
	if len(gates) != n.Size() {
		t.Fatalf("Gates() returned %d, Size() %d", len(gates), n.Size())
	}
	maxLayer := 0
	for _, g := range gates {
		if len(g.Wires) < 2 || g.Layer < 1 {
			t.Fatalf("malformed gate info: %+v", g)
		}
		if g.Layer > maxLayer {
			maxLayer = g.Layer
		}
		if g.Label == "" {
			t.Errorf("gate missing construction label")
		}
	}
	if maxLayer != n.Depth() {
		t.Errorf("max layer %d, depth %d", maxLayer, n.Depth())
	}
	// Returned data is a copy.
	gates[0].Wires[0] = 999
	if n.Gates()[0].Wires[0] == 999 {
		t.Error("Gates() exposes internal state")
	}
	order := n.OutputOrder()
	if len(order) != n.Width() {
		t.Fatalf("OutputOrder length %d", len(order))
	}
	order[0] = 999
	if n.OutputOrder()[0] == 999 {
		t.Error("OutputOrder() exposes internal state")
	}
}

func TestTraceTokens(t *testing.T) {
	n, err := NewK(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.TraceTokens([]int{0, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"token 0", "token 2", "value 0", "exit counts"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	if _, err := n.TraceTokens([]int{9}); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestFactorizationHelpers(t *testing.T) {
	fss := Factorizations(12)
	if len(fss) != 4 {
		t.Errorf("Factorizations(12) = %v", fss)
	}
	bal := BalancedFactorization(64, 3)
	if len(bal) != 3 || bal[0] != 4 {
		t.Errorf("BalancedFactorization(64,3) = %v", bal)
	}
	// The balanced factorization feeds straight into NewL.
	n, err := NewL(bal...)
	if err != nil || n.Width() != 64 {
		t.Errorf("NewL(balanced): %v %v", n, err)
	}
}

// TestOptConstructors covers the sorting-only optimal-base wrappers:
// they sort, expose the expected structure, and reject bad widths.
// The counting verdict is deliberately not asserted (see NewKOpt).
func TestOptConstructors(t *testing.T) {
	ko, err := NewKOpt(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ko.VerifySorting(1); err != nil {
		t.Errorf("NewKOpt(2,2,4): %v", err)
	}
	if got := ko.MaxBalancerWidth(); got != 2 {
		t.Errorf("NewKOpt(2,2,4): max balancer width %d, want 2", got)
	}
	lo, err := NewLOpt(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := lo.VerifySorting(1); err != nil {
		t.Errorf("NewLOpt(3,4): %v", err)
	}
	ro, err := NewROpt(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.VerifySorting(1); err != nil {
		t.Errorf("NewROpt(4,4): %v", err)
	}
	if got, want := ro.Depth(), 10; got != want {
		t.Errorf("NewROpt(4,4): depth %d, want %d", got, want)
	}
	os, err := NewOptSorter(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.VerifySorting(1); err != nil {
		t.Errorf("NewOptSorter(10): %v", err)
	}
	if _, err := NewOptSorter(17); err == nil {
		t.Error("NewOptSorter(17) should fail")
	}
	if _, err := NewKOpt(); err == nil {
		t.Error("NewKOpt() should fail")
	}
	// The custom facade reaches the same bases.
	c, err := NewCustom(Options{Base: BaseOptBalancer, Staircase: StaircaseOptimizedBase}, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != ko.Size() || c.Depth() != ko.Depth() {
		t.Errorf("NewCustom(opt) %d/%d differs from NewKOpt %d/%d", c.Size(), c.Depth(), ko.Size(), ko.Depth())
	}
	cr, err := NewCustom(Options{Base: BaseOptR, Staircase: StaircaseOptimizedBitonic}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Size() != lo.Size() || cr.Depth() != lo.Depth() {
		t.Errorf("NewCustom(optR) %d/%d differs from NewLOpt %d/%d", cr.Size(), cr.Depth(), lo.Size(), lo.Depth())
	}
}

// TestCounterSetupAllocs bounds the allocations of a counter's whole
// set-up, the set-up perfbench's count_token times: building L(4,4),
// compiling it into a counter and taking a handle. It read 374 while
// every gate carried two routing slices of its own and every
// construction step allocated its temporaries; it reads 34 now.
func TestCounterSetupAllocs(t *testing.T) {
	const limit = 48
	allocs := testing.AllocsPerRun(20, func() {
		n, err := NewL(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		NewCounter(n).Handle(0)
	})
	if allocs > limit {
		t.Errorf("NewCounter(NewL(4,4)).Handle(0) allocates %v times, want at most %d", allocs, limit)
	}
}
