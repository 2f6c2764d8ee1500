package runner

import (
	"testing"

	"countnet/internal/network"
)

// maskDiffNets builds traversal subjects mixing power-of-two gate
// widths (mask fast path) with non-pow2 widths (DIV path), including
// multi-layer routes.
func maskDiffNets(t testing.TB) []*network.Network {
	t.Helper()
	var nets []*network.Network

	b := network.NewBuilder(8)
	b.Add([]int{0, 1, 2, 3}, "a")
	b.Add([]int{4, 5, 6, 7}, "b")
	b.Add([]int{0, 4}, "c")
	b.Add([]int{1, 5}, "d")
	b.Add([]int{2, 6}, "e")
	b.Add([]int{3, 7}, "f")
	b.Add([]int{0, 1, 2, 3, 4, 5, 6, 7}, "g")
	nets = append(nets, b.Build("pow2", nil))

	b = network.NewBuilder(6)
	b.Add([]int{0, 1, 2}, "a") // width 3: DIV path
	b.Add([]int{3, 4, 5}, "b")
	b.Add([]int{0, 3}, "c") // width 2: mask path
	b.Add([]int{1, 2, 4, 5}, "d")
	b.Add([]int{0, 1, 2, 3, 4}, "e") // width 5: DIV path
	nets = append(nets, b.Build("mixed", []int{5, 4, 3, 2, 1, 0}))

	return nets
}

// TestTraverseMaskVsModulo pins the pow2 mask fast path against plain
// modulo routing: the same serial token sequence through an Async with
// masks force-disabled (every gate takes the DIV path) must exit on
// identical positions, for Traverse with observability off and on and
// for TraverseHooked (all three run the one atomic walk), with
// TraverseMutex's independent arithmetic as a third oracle.
func TestTraverseMaskVsModulo(t *testing.T) {
	for _, net := range maskDiffNets(t) {
		t.Run(net.Name, func(t *testing.T) {
			fast := Compile(net)
			slow := Compile(net)
			masked := 0
			for i := range slow.gates {
				if slow.gates[i].mask >= 0 {
					masked++
				}
				slow.gates[i].mask = -1 // force the modulo path
			}
			if masked == 0 {
				t.Fatal("subject has no pow2 gates; differential is vacuous")
			}
			hooked := Compile(net)
			mutex := Compile(net)
			obsd := Compile(net)
			obsd.EnableObs("maskdiff")
			yield := func(string) {}
			const tokens = 500
			for k := 0; k < tokens; k++ {
				wire := k % net.Width()
				want := slow.Traverse(wire)
				if got := fast.Traverse(wire); got != want {
					t.Fatalf("token %d wire %d: mask path exits %d, modulo path %d", k, wire, got, want)
				}
				if got := obsd.Traverse(wire); got != want {
					t.Fatalf("token %d wire %d: observed path exits %d, modulo path %d", k, wire, got, want)
				}
				if got := hooked.TraverseHooked(wire, yield); got != want {
					t.Fatalf("token %d wire %d: hooked path exits %d, modulo path %d", k, wire, got, want)
				}
				if got := mutex.TraverseMutex(wire); got != want {
					t.Fatalf("token %d wire %d: mutex path exits %d, modulo path %d", k, wire, got, want)
				}
			}
		})
	}
}
