package network

import (
	"encoding/json"
	"fmt"
)

// jsonNetwork is the serialized form of a Network. Layers are not
// serialized; they are recomputed on load so that a hand-edited file
// cannot carry inconsistent layer assignments.
type jsonNetwork struct {
	Name        string     `json:"name"`
	Width       int        `json:"width"`
	Gates       []jsonGate `json:"gates"`
	OutputOrder []int      `json:"output_order,omitempty"`
}

type jsonGate struct {
	Wires []int  `json:"wires"`
	Label string `json:"label,omitempty"`
}

// MarshalJSON encodes the network structure.
func (n *Network) MarshalJSON() ([]byte, error) {
	jn := jsonNetwork{Name: n.Name, Width: n.WireCount, OutputOrder: n.OutputOrder}
	jn.Gates = make([]jsonGate, len(n.Gates))
	for i := range n.Gates {
		jn.Gates[i] = jsonGate{Wires: n.Gates[i].Wires, Label: n.Gates[i].Label}
	}
	return json.Marshal(jn)
}

// UnmarshalJSON decodes a network, re-deriving gate layers and depth,
// and validates the result.
func (n *Network) UnmarshalJSON(data []byte) error {
	var jn jsonNetwork
	if err := json.Unmarshal(data, &jn); err != nil {
		return err
	}
	if jn.Width < 0 {
		return fmt.Errorf("network: negative width %d", jn.Width)
	}
	b := NewBuilder(jn.Width)
	b.Grow(len(jn.Gates))
	for i, g := range jn.Gates {
		if len(g.Wires) < 2 {
			return fmt.Errorf("network: gate %d has width %d < 2", i, len(g.Wires))
		}
		for _, w := range g.Wires {
			if w < 0 || w >= jn.Width {
				return fmt.Errorf("network: gate %d wire %d out of range", i, w)
			}
		}
		seen := make(map[int]bool, len(g.Wires))
		for _, w := range g.Wires {
			if seen[w] {
				return fmt.Errorf("network: gate %d repeats wire %d", i, w)
			}
			seen[w] = true
		}
		b.Add(g.Wires, g.Label)
	}
	var order []int
	if jn.OutputOrder != nil {
		if len(jn.OutputOrder) != jn.Width {
			return fmt.Errorf("network: output order has %d entries for width %d", len(jn.OutputOrder), jn.Width)
		}
		order = jn.OutputOrder
	}
	built := b.Build(jn.Name, order)
	if err := built.Validate(); err != nil {
		return err
	}
	*n = *built
	return nil
}
