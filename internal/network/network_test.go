package network

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderLayering(t *testing.T) {
	b := NewBuilder(6)
	b.Add([]int{0, 1}, "a")
	b.Add([]int{2, 3}, "b")
	b.Add([]int{1, 2}, "c") // depends on both -> layer 2
	b.Add([]int{4, 5}, "d") // independent -> layer 1
	n := b.Build("test", nil)
	if n.Depth() != 2 {
		t.Errorf("depth = %d, want 2", n.Depth())
	}
	wantLayers := []int{1, 1, 2, 1}
	for i, g := range n.Gates {
		if g.Layer != wantLayers[i] {
			t.Errorf("gate %d layer = %d, want %d", i, g.Layer, wantLayers[i])
		}
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderSkipsTrivialGates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(nil, "empty")
	b.Add([]int{1}, "unary")
	if b.GateCount() != 0 {
		t.Errorf("trivial gates were added: %d", b.GateCount())
	}
	b.Add([]int{0, 1, 2}, "real")
	if b.GateCount() != 1 {
		t.Errorf("gate count = %d, want 1", b.GateCount())
	}
}

func TestBuilderPanicsOnBadWires(t *testing.T) {
	for _, wires := range [][]int{{0, 3}, {-1, 0}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", wires)
				}
			}()
			NewBuilder(3).Add(wires, "bad")
		}()
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(2)
	b.Add([]int{0, 1}, "x")
	n1 := b.Build("one", nil)
	b.Add([]int{0, 1}, "y")
	n2 := b.Build("two", nil)
	if n1.Size() != 1 || n2.Size() != 2 {
		t.Errorf("sizes = %d, %d; want 1, 2", n1.Size(), n2.Size())
	}
	if n1.Depth() != 1 || n2.Depth() != 2 {
		t.Errorf("depths = %d, %d; want 1, 2", n1.Depth(), n2.Depth())
	}
}

// TestBuildHandsOverGateTable: Build gives the network the builder's
// gate table capped at its length, so gates added to the same builder
// afterwards never show up in, or overwrite, the built network; and a
// Grow hint, exact, too small or too large, changes nothing built.
func TestBuildHandsOverGateTable(t *testing.T) {
	var ref *Network
	for _, hint := range []int{-1, 4, 2, 9} { // -1: no Grow call
		b := NewBuilder(5)
		if hint >= 0 {
			b.Grow(hint)
		}
		b.Add([]int{0, 1}, "a")
		b.Add([]int{2, 3, 4}, "b")
		b.Add([]int{1, 2}, "c")
		b.Add([]int{0, 4}, "d")
		n := b.Build("h", nil)
		if cap(n.Gates) != len(n.Gates) {
			t.Errorf("hint %d: cap(Gates) = %d, len %d", hint, cap(n.Gates), len(n.Gates))
		}
		if ref == nil {
			ref = n
		} else if !reflect.DeepEqual(n, ref) {
			t.Errorf("hint %d: built %v, want %v", hint, n.Gates, ref.Gates)
		}
		want := *n
		want.Gates = append([]Gate(nil), n.Gates...)
		for i := range want.Gates {
			want.Gates[i].Wires = append([]int(nil), n.Gates[i].Wires...)
		}

		b.Add([]int{0, 1}, "later")
		b.Barrier([]int{1, 2, 3})
		b.Add([]int{2, 3}, "later")
		n2 := b.Build("h2", nil)
		if !reflect.DeepEqual(n, &want) {
			t.Errorf("hint %d: later Adds changed the built network to %v", hint, n.Gates)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("hint %d: first network: %v", hint, err)
		}
		if n.Depth() != 2 || n2.Size() != 6 || n2.Depth() != 4 {
			t.Errorf("hint %d: depth %d, then %d gates at depth %d; want 2, 6 at 4",
				hint, n.Depth(), n2.Size(), n2.Depth())
		}
		if err := n2.Validate(); err != nil {
			t.Errorf("hint %d: second network: %v", hint, err)
		}
	}
}

func TestBarrier(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]int{0, 1}, "a")
	b.Add([]int{0, 1}, "b") // wires 0,1 now depth 2
	b.Barrier([]int{2, 3, 0})
	b.Add([]int{2, 3}, "c") // pushed past the barrier
	n := b.Build("t", nil)
	if n.Gates[2].Layer != 3 {
		t.Errorf("gate after barrier at layer %d, want 3", n.Gates[2].Layer)
	}
}

func TestWireDepthAndDepth(t *testing.T) {
	b := NewBuilder(3)
	if b.Depth() != 0 {
		t.Errorf("empty depth = %d", b.Depth())
	}
	b.Add([]int{0, 1}, "")
	if b.WireDepth(0) != 1 || b.WireDepth(2) != 0 {
		t.Errorf("wire depths wrong: %d %d", b.WireDepth(0), b.WireDepth(2))
	}
}

func TestNetworkAccessors(t *testing.T) {
	b := NewBuilder(5)
	b.Add([]int{0, 1, 2}, "wide")
	b.Add([]int{3, 4}, "narrow")
	b.Add([]int{0, 3}, "later")
	n := b.Build("acc", nil)
	if n.Width() != 5 || n.Size() != 3 || n.MaxGateWidth() != 3 {
		t.Errorf("accessors: width=%d size=%d max=%d", n.Width(), n.Size(), n.MaxGateWidth())
	}
	h := n.GateWidthHistogram()
	if h[2] != 2 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
	layers := n.Layers()
	if len(layers) != 2 || len(layers[0]) != 2 || len(layers[1]) != 1 {
		t.Errorf("layers = %v", layers)
	}
	if !strings.Contains(n.String(), "width=5") {
		t.Errorf("String = %q", n.String())
	}
}

func TestWireGatesTopological(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]int{0, 1}, "a")
	b.Add([]int{1, 2}, "b")
	b.Add([]int{0, 2, 3}, "c")
	n := b.Build("wg", nil)
	wg := n.WireGates()
	want := [][]int{{0, 2}, {0, 1}, {1, 2}, {2}}
	for w := range want {
		if len(wg[w]) != len(want[w]) {
			t.Fatalf("wire %d gates = %v, want %v", w, wg[w], want[w])
		}
		for i := range want[w] {
			if wg[w][i] != want[w][i] {
				t.Fatalf("wire %d gates = %v, want %v", w, wg[w], want[w])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Network {
		b := NewBuilder(3)
		b.Add([]int{0, 1}, "a")
		b.Add([]int{1, 2}, "b")
		return b.Build("v", nil)
	}
	n := mk()
	if err := n.Validate(); err != nil {
		t.Fatalf("fresh network invalid: %v", err)
	}

	n = mk()
	n.Gates[1].Layer = 1 // same layer as a gate sharing wire 1
	if n.Validate() == nil {
		t.Error("layer collision not caught")
	}

	n = mk()
	n.Gates[0].Wires = []int{0, 7}
	if n.Validate() == nil {
		t.Error("out-of-range wire not caught")
	}

	n = mk()
	n.Gates[0].Wires = []int{1, 1}
	if n.Validate() == nil {
		t.Error("duplicate wire not caught")
	}

	n = mk()
	n.OutputOrder = []int{0, 1, 1}
	if n.Validate() == nil {
		t.Error("non-permutation output order not caught")
	}

	n = mk()
	n.OutputOrder = []int{0, 1}
	if n.Validate() == nil {
		t.Error("short output order not caught")
	}

	n = mk()
	n.Gates[0].ID = 5
	if n.Validate() == nil {
		t.Error("bad gate ID not caught")
	}

	n = mk()
	n.depth = 9
	if n.Validate() == nil {
		t.Error("bad recorded depth not caught")
	}

	n = mk()
	n.Gates[0].Wires = []int{0}
	if n.Validate() == nil {
		t.Error("width-1 gate not caught")
	}
}

func TestBuildCustomOutputOrder(t *testing.T) {
	b := NewBuilder(3)
	b.Add([]int{0, 1}, "")
	n := b.Build("o", []int{2, 0, 1})
	if n.OutputOrder[0] != 2 {
		t.Errorf("output order = %v", n.OutputOrder)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short output order should panic at Build")
			}
		}()
		b.Build("bad", []int{0})
	}()
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i, v := range id {
		if v != i {
			t.Fatalf("Identity(4) = %v", id)
		}
	}
	if len(Identity(0)) != 0 {
		t.Error("Identity(0) not empty")
	}
}

func TestDepthEqualsLongestPath(t *testing.T) {
	// Property: for a random layered construction, depth equals the
	// max gate layer and Validate holds.
	f := func(seedRaw uint16) bool {
		b := NewBuilder(8)
		// Deterministic pseudo-random gate pattern from the seed, mixed
		// in uint32 so the constants fit on 32-bit targets too.
		x := uint32(seedRaw)*2654435761 + 1
		for g := 0; g < 12; g++ {
			x = x*1103515245 + 12345
			a := int(x>>4) & 7
			x = x*1103515245 + 12345
			c := int(x>>4) & 7
			if a == c {
				c = (c + 1) & 7
			}
			b.Add([]int{a, c}, "r")
		}
		n := b.Build("rand", nil)
		if n.Validate() != nil {
			return false
		}
		max := 0
		for _, g := range n.Gates {
			if g.Layer > max {
				max = g.Layer
			}
		}
		return max == n.Depth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedDepth(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]int{0, 1, 2}, "") // width 3
	b.Add([]int{0, 3}, "")    // width 2, after the first on wire 0
	b.Add([]int{1, 2}, "")    // width 2, after the first on wires 1,2
	n := b.Build("wd", nil)
	unit := func(int) int { return 1 }
	if got := n.WeightedDepth(unit); got != n.Depth() {
		t.Errorf("unit-cost weighted depth %d != depth %d", got, n.Depth())
	}
	linear := func(p int) int { return p }
	// Critical path: width-3 gate (3) then width-2 gate (2) = 5.
	if got := n.WeightedDepth(linear); got != 5 {
		t.Errorf("linear weighted depth %d, want 5", got)
	}
	if got := NewBuilder(2).Build("", nil).WeightedDepth(linear); got != 0 {
		t.Errorf("empty network weighted depth %d", got)
	}
}

func TestDOTAndASCII(t *testing.T) {
	b := NewBuilder(4)
	b.Add([]int{0, 1}, "g1")
	b.Add([]int{2, 3}, "g2")
	b.Add([]int{1, 2}, "g3")
	n := b.Build("diagram", nil)
	dot := n.DOT()
	for _, frag := range []string{"digraph", "g0", "g2", "in0", "out3", "rank=same"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
	ascii := n.ASCII()
	if !strings.Contains(ascii, "layer  1:") || !strings.Contains(ascii, "layer  2:") {
		t.Errorf("ASCII missing layers:\n%s", ascii)
	}
	empty := NewBuilder(0).Build("", nil)
	if !strings.Contains(empty.DOT(), "digraph") {
		t.Error("empty DOT should still render")
	}
}

// TestValidateMessages pins which fault Validate reports when a gate
// has several: out-of-range and duplicate wires come before a layer
// clash on any of the gate's wires, in wire order, and a wire shared
// with an earlier gate is no duplicate.
func TestValidateMessages(t *testing.T) {
	mk := func() *Network {
		b := NewBuilder(4)
		b.Add([]int{0, 1}, "a")
		b.Add([]int{1, 2, 3}, "b")
		b.Add([]int{0, 2}, "c")
		return b.Build("v", nil)
	}
	for _, c := range []struct {
		name    string
		corrupt func(n *Network)
		want    string
	}{
		{"layer clash", func(n *Network) { n.Gates[1].Layer = 1 },
			"network: gate 1 at layer 1 but wire 1 already at depth 1"},
		{"clash before a duplicate", func(n *Network) { n.Gates[1].Layer = 1; n.Gates[1].Wires = []int{1, 2, 2} },
			"network: gate 1 touches wire 2 twice"},
		{"clash before an out-of-range wire", func(n *Network) { n.Gates[1].Layer = 1; n.Gates[1].Wires = []int{1, 2, -1} },
			"network: gate 1 touches wire -1 outside width 4"},
		{"duplicate before out of range", func(n *Network) { n.Gates[2].Wires = []int{0, 0, 9} },
			"network: gate 2 touches wire 0 twice"},
		{"first clashing wire", func(n *Network) { n.Gates[2].Layer = 1 },
			"network: gate 2 at layer 1 but wire 0 already at depth 1"},
	} {
		n := mk()
		c.corrupt(n)
		if err := n.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}
