package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"countnet/internal/baseline"
	"countnet/internal/core"
	"countnet/internal/network"
)

// refCompile is the routing Compile derives in one pass, built the
// slow way from Network.WireGates: each wire's entry gate, each port's
// wire and the next gate on it, and each wire's output position.
func refCompile(net *network.Network) (entry []int32, wires, next [][]int32, outPos []int32) {
	wg := net.WireGates()
	entry = make([]int32, net.Width())
	for w, lst := range wg {
		entry[w] = -1
		if len(lst) > 0 {
			entry[w] = int32(lst[0])
		}
	}
	for gi := range net.Gates {
		g := &net.Gates[gi]
		ws, ns := make([]int32, len(g.Wires)), make([]int32, len(g.Wires))
		for port, w := range g.Wires {
			ws[port], ns[port] = int32(w), -1
			k := slices.Index(wg[w], gi)
			if k+1 < len(wg[w]) {
				ns[port] = int32(wg[w][k+1])
			}
		}
		wires, next = append(wires, ws), append(next, ns)
	}
	outPos = make([]int32, net.Width())
	for pos, w := range net.OutputOrder {
		outPos[w] = int32(pos)
	}
	return entry, wires, next, outPos
}

// checkCompile fails unless Compile's tables equal refCompile's.
func checkCompile(t *testing.T, net *network.Network) {
	t.Helper()
	a := Compile(net)
	entry, wires, next, outPos := refCompile(net)
	if !slices.Equal(a.entry, entry) {
		t.Fatalf("%s: entry %v, want %v", net.Name, a.entry, entry)
	}
	if !slices.Equal(a.outPos, outPos) {
		t.Fatalf("%s: outPos %v, want %v", net.Name, a.outPos, outPos)
	}
	if len(a.gates) != net.Size() || len(a.hot) != net.Size() || len(a.gateLayer) != net.Size() {
		t.Fatalf("%s: %d gates, %d counters, %d layers for %d gates", net.Name, len(a.gates), len(a.hot), len(a.gateLayer), net.Size())
	}
	for gi := range net.Gates {
		g := &a.gates[gi]
		if !slices.Equal(g.wires, wires[gi]) || !slices.Equal(g.next, next[gi]) {
			t.Fatalf("%s gate %d: wires %v next %v, want %v %v", net.Name, gi, g.wires, g.next, wires[gi], next[gi])
		}
		if cap(g.wires) != len(g.wires) || cap(g.next) != len(g.next) {
			t.Fatalf("%s gate %d: port windows overrun their gate", net.Name, gi)
		}
		if g.width != int64(net.Gates[gi].Width()) || a.gateLayer[gi] != int32(net.Gates[gi].Layer) {
			t.Fatalf("%s gate %d: width %d layer %d", net.Name, gi, g.width, a.gateLayer[gi])
		}
	}
}

// TestCompileMatchesWireGates pins the one-pass routing tables against
// the WireGates reference on every golden network and on the K, L, R
// and bitonic families up to width 64.
func TestCompileMatchesWireGates(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.golden.json"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden networks: %v (%d found)", err, len(golden))
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var n network.Network
		if err := json.Unmarshal(data, &n); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkCompile(t, &n)
	}
	for w := 2; w <= 64; w++ {
		for _, fs := range factorizations(w) {
			for _, build := range []func(...int) (*network.Network, error){core.K, core.L} {
				n, err := build(fs...)
				if err != nil {
					t.Fatal(err)
				}
				checkCompile(t, n)
			}
			if len(fs) == 2 {
				n, err := core.R(fs[0], fs[1])
				if err != nil {
					t.Fatal(err)
				}
				checkCompile(t, n)
			}
		}
		if w&(w-1) == 0 {
			n, err := baseline.Bitonic(w)
			if err != nil {
				t.Fatal(err)
			}
			checkCompile(t, n)
		}
	}
}

// factorizations lists the ordered factorizations of w into factors
// of at least 2.
func factorizations(w int) [][]int {
	var out [][]int
	var rec func(rest int, prefix []int)
	rec = func(rest int, prefix []int) {
		if rest == 1 {
			if len(prefix) > 0 {
				out = append(out, slices.Clone(prefix))
			}
			return
		}
		for f := 2; f <= rest; f++ {
			if rest%f == 0 {
				rec(rest/f, append(prefix, f))
			}
		}
	}
	rec(w, nil)
	return out
}

// FuzzCompileVsWireGates checks the one-pass routing tables against
// the WireGates reference on random Builder networks of widths 2..40.
func FuzzCompileVsWireGates(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(38), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, width, gates uint8) {
		net, _ := randomPlanNetwork(seed, 2+int(width)%39, int(gates))
		checkCompile(t, net)
	})
}

// TestCompileAllocs pins Compile's allocation count: the same for
// L(4,4) and L(3,4,5,6), whatever their gate and port counts.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own: counts differ by network size")
	}
	var allocs []float64
	for _, fs := range [][]int{{4, 4}, {3, 4, 5, 6}} {
		n, err := core.L(fs...)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { Compile(n) }))
	}
	if allocs[0] != allocs[1] || allocs[0] > 4 {
		t.Errorf("Compile allocates %v times on L(4,4) and %v on L(3,4,5,6), want the same count, at most 4", allocs[0], allocs[1])
	}
}
