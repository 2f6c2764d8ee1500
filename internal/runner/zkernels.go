// Code generated by cmd/kernelgen from internal/optnet; DO NOT EDIT.
// Regenerate: go generate ./internal/runner (or make generate).
// Drift gate: make generate-check (run by CI on every push).

package runner

// maxKernelWidth is the widest gate with a generated straight-line
// compare-exchange kernel; CompilePlan expands wider gates into
// merge-exchange networks of 2-gates (expandWide in plan.go).
const maxKernelWidth = 16

// scalarKernels is the scalar run kernel table of Plan.Apply, indexed
// by gate width.
var scalarKernels = [maxKernelWidth + 1]func(vals []int64, wires []int32, count int){
	2:  ce2,
	3:  ce3,
	4:  ce4,
	5:  ce5,
	6:  ce6,
	7:  ce7,
	8:  ce8,
	9:  ce9,
	10: ce10,
	11: ce11,
	12: ce12,
	13: ce13,
	14: ce14,
	15: ce15,
	16: ce16,
}

// goLanes is the portable lane kernel table. It has no tile
// transposes: runBlock's loops move every value in and out of a block.
var goLanes = laneTable{sort: laneKernels{
	2:  lane2,
	3:  lane3,
	4:  lane4,
	5:  lane5,
	6:  lane6,
	7:  lane7,
	8:  lane8,
	9:  lane9,
	10: lane10,
	11: lane11,
	12: lane12,
	13: lane13,
	14: lane14,
	15: lane15,
	16: lane16,
}}

// ce2 sorts the 2 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-1 depth-1 network (trivial).
//
//netvet:hotpath
func ce2(vals []int64, wires []int32, count int) {
	wires = wires[:2*count]
	for len(wires) >= 2 {
		w0 := wires[0]
		w1 := wires[1]
		wires = wires[2:]
		v0 := vals[w0]
		v1 := vals[w1]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		vals[w0] = v0
		vals[w1] = v1
	}
}

// lane2 sorts the 2 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-1 depth-1
// network (trivial).
//
//netvet:hotpath
func lane2(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[2*g : 2*g+2 : 2*g+2]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			r0[i] = v0
			r1[i] = v1
		}
	}
}

// ce3 sorts the 3 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-3 depth-3 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce3(vals []int64, wires []int32, count int) {
	wires = wires[:3*count]
	for len(wires) >= 3 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		wires = wires[3:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		// layer 2
		v1, v2 = max(v1, v2), min(v1, v2)
		// layer 3
		v0, v1 = max(v0, v1), min(v0, v1)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
	}
}

// lane3 sorts the 3 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-3 depth-3
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane3(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[3*g : 3*g+3 : 3*g+3]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			// layer 2
			v1, v2 = max(v1, v2), min(v1, v2)
			// layer 3
			v0, v1 = max(v0, v1), min(v0, v1)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
		}
	}
}

// ce4 sorts the 4 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-5 depth-3 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce4(vals []int64, wires []int32, count int) {
	wires = wires[:4*count]
	for len(wires) >= 4 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		wires = wires[4:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		// layer 3
		v1, v2 = max(v1, v2), min(v1, v2)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
	}
}

// lane4 sorts the 4 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-5 depth-3
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane4(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[4*g : 4*g+4 : 4*g+4]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			// layer 3
			v1, v2 = max(v1, v2), min(v1, v2)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
		}
	}
}

// ce5 sorts the 5 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-9 depth-5 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce5(vals []int64, wires []int32, count int) {
	wires = wires[:5*count]
	for len(wires) >= 5 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		wires = wires[5:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		// layer 1
		v0, v3 = max(v0, v3), min(v0, v3)
		v1, v4 = max(v1, v4), min(v1, v4)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		// layer 3
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v4 = max(v2, v4), min(v2, v4)
		// layer 4
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		// layer 5
		v2, v3 = max(v2, v3), min(v2, v3)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
	}
}

// lane5 sorts the 5 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-9 depth-5
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane5(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[5*g : 5*g+5 : 5*g+5]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			// layer 1
			v0, v3 = max(v0, v3), min(v0, v3)
			v1, v4 = max(v1, v4), min(v1, v4)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			// layer 3
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v4 = max(v2, v4), min(v2, v4)
			// layer 4
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			// layer 5
			v2, v3 = max(v2, v3), min(v2, v3)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
		}
	}
}

// ce6 sorts the 6 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-12 depth-5 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce6(vals []int64, wires []int32, count int) {
	wires = wires[:6*count]
	for len(wires) >= 6 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		wires = wires[6:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		// layer 1
		v0, v5 = max(v0, v5), min(v0, v5)
		v1, v3 = max(v1, v3), min(v1, v3)
		v2, v4 = max(v2, v4), min(v2, v4)
		// layer 2
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		// layer 3
		v0, v3 = max(v0, v3), min(v0, v3)
		v2, v5 = max(v2, v5), min(v2, v5)
		// layer 4
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
	}
}

// lane6 sorts the 6 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-12 depth-5
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane6(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[6*g : 6*g+6 : 6*g+6]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			// layer 1
			v0, v5 = max(v0, v5), min(v0, v5)
			v1, v3 = max(v1, v3), min(v1, v3)
			v2, v4 = max(v2, v4), min(v2, v4)
			// layer 2
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			// layer 3
			v0, v3 = max(v0, v3), min(v0, v3)
			v2, v5 = max(v2, v5), min(v2, v5)
			// layer 4
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
		}
	}
}

// ce7 sorts the 7 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-16 depth-6 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce7(vals []int64, wires []int32, count int) {
	wires = wires[:7*count]
	for len(wires) >= 7 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		wires = wires[7:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		// layer 1
		v0, v6 = max(v0, v6), min(v0, v6)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v4 = max(v1, v4), min(v1, v4)
		v3, v6 = max(v3, v6), min(v3, v6)
		// layer 3
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v5 = max(v2, v5), min(v2, v5)
		v3, v4 = max(v3, v4), min(v3, v4)
		// layer 4
		v1, v2 = max(v1, v2), min(v1, v2)
		v4, v6 = max(v4, v6), min(v4, v6)
		// layer 5
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		// layer 6
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
	}
}

// lane7 sorts the 7 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-16 depth-6
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane7(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[7*g : 7*g+7 : 7*g+7]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			// layer 1
			v0, v6 = max(v0, v6), min(v0, v6)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v4 = max(v1, v4), min(v1, v4)
			v3, v6 = max(v3, v6), min(v3, v6)
			// layer 3
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v5 = max(v2, v5), min(v2, v5)
			v3, v4 = max(v3, v4), min(v3, v4)
			// layer 4
			v1, v2 = max(v1, v2), min(v1, v2)
			v4, v6 = max(v4, v6), min(v4, v6)
			// layer 5
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			// layer 6
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
		}
	}
}

// ce8 sorts the 8 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-19 depth-6 network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func ce8(vals []int64, wires []int32, count int) {
	wires = wires[:8*count]
	for len(wires) >= 8 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		wires = wires[8:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		// layer 1
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		// layer 2
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		// layer 3
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		// layer 4
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v5 = max(v3, v5), min(v3, v5)
		// layer 5
		v1, v4 = max(v1, v4), min(v1, v4)
		v3, v6 = max(v3, v6), min(v3, v6)
		// layer 6
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
	}
}

// lane8 sorts the 8 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-19 depth-6
// network (Knuth TAOCP 5.3.4 (optimal size and depth)).
//
//netvet:hotpath
func lane8(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[8*g : 8*g+8 : 8*g+8]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			// layer 1
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			// layer 2
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			// layer 3
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			// layer 4
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v5 = max(v3, v5), min(v3, v5)
			// layer 5
			v1, v4 = max(v1, v4), min(v1, v4)
			v3, v6 = max(v3, v6), min(v3, v6)
			// layer 6
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
		}
	}
}

// ce9 sorts the 9 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-25 depth-7 network (joint size/depth optimum (Bundala-Zavodny arXiv:1310.6271; Fonollosa arXiv:1806.00305)).
//
//netvet:hotpath
func ce9(vals []int64, wires []int32, count int) {
	wires = wires[:9*count]
	for len(wires) >= 9 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		wires = wires[9:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		// layer 1
		v0, v3 = max(v0, v3), min(v0, v3)
		v1, v7 = max(v1, v7), min(v1, v7)
		v2, v5 = max(v2, v5), min(v2, v5)
		v4, v8 = max(v4, v8), min(v4, v8)
		// layer 2
		v0, v7 = max(v0, v7), min(v0, v7)
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		// layer 3
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v7, v8 = max(v7, v8), min(v7, v8)
		// layer 4
		v1, v4 = max(v1, v4), min(v1, v4)
		v3, v6 = max(v3, v6), min(v3, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		// layer 5
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v8 = max(v6, v8), min(v6, v8)
		// layer 6
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		// layer 7
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
	}
}

// lane9 sorts the 9 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-25 depth-7
// network (joint size/depth optimum (Bundala-Zavodny arXiv:1310.6271; Fonollosa arXiv:1806.00305)).
//
//netvet:hotpath
func lane9(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[9*g : 9*g+9 : 9*g+9]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			// layer 1
			v0, v3 = max(v0, v3), min(v0, v3)
			v1, v7 = max(v1, v7), min(v1, v7)
			v2, v5 = max(v2, v5), min(v2, v5)
			v4, v8 = max(v4, v8), min(v4, v8)
			// layer 2
			v0, v7 = max(v0, v7), min(v0, v7)
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			// layer 3
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v7, v8 = max(v7, v8), min(v7, v8)
			// layer 4
			v1, v4 = max(v1, v4), min(v1, v4)
			v3, v6 = max(v3, v6), min(v3, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			// layer 5
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v8 = max(v6, v8), min(v6, v8)
			// layer 6
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			// layer 7
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
		}
	}
}

// ce10 sorts the 10 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-29 depth-8 network (in-repo local search, optimal size (proven depth optimum 7: Bundala-Zavodny)).
//
//netvet:hotpath
func ce10(vals []int64, wires []int32, count int) {
	wires = wires[:10*count]
	for len(wires) >= 10 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		wires = wires[10:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		// layer 1
		v0, v5 = max(v0, v5), min(v0, v5)
		v1, v6 = max(v1, v6), min(v1, v6)
		v2, v7 = max(v2, v7), min(v2, v7)
		v3, v8 = max(v3, v8), min(v3, v8)
		v4, v9 = max(v4, v9), min(v4, v9)
		// layer 2
		v0, v3 = max(v0, v3), min(v0, v3)
		v1, v4 = max(v1, v4), min(v1, v4)
		v5, v8 = max(v5, v8), min(v5, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		// layer 3
		v0, v2 = max(v0, v2), min(v0, v2)
		v5, v7 = max(v5, v7), min(v5, v7)
		v6, v9 = max(v6, v9), min(v6, v9)
		// layer 4
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v6 = max(v3, v6), min(v3, v6)
		v8, v9 = max(v8, v9), min(v8, v9)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v5 = max(v3, v5), min(v3, v5)
		v4, v6 = max(v4, v6), min(v4, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		// layer 6
		v1, v3 = max(v1, v3), min(v1, v3)
		v2, v5 = max(v2, v5), min(v2, v5)
		v4, v7 = max(v4, v7), min(v4, v7)
		v6, v8 = max(v6, v8), min(v6, v8)
		// layer 7
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		// layer 8
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
	}
}

// lane10 sorts the 10 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-29 depth-8
// network (in-repo local search, optimal size (proven depth optimum 7: Bundala-Zavodny)).
//
//netvet:hotpath
func lane10(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[10*g : 10*g+10 : 10*g+10]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			// layer 1
			v0, v5 = max(v0, v5), min(v0, v5)
			v1, v6 = max(v1, v6), min(v1, v6)
			v2, v7 = max(v2, v7), min(v2, v7)
			v3, v8 = max(v3, v8), min(v3, v8)
			v4, v9 = max(v4, v9), min(v4, v9)
			// layer 2
			v0, v3 = max(v0, v3), min(v0, v3)
			v1, v4 = max(v1, v4), min(v1, v4)
			v5, v8 = max(v5, v8), min(v5, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			// layer 3
			v0, v2 = max(v0, v2), min(v0, v2)
			v5, v7 = max(v5, v7), min(v5, v7)
			v6, v9 = max(v6, v9), min(v6, v9)
			// layer 4
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v6 = max(v3, v6), min(v3, v6)
			v8, v9 = max(v8, v9), min(v8, v9)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v5 = max(v3, v5), min(v3, v5)
			v4, v6 = max(v4, v6), min(v4, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			// layer 6
			v1, v3 = max(v1, v3), min(v1, v3)
			v2, v5 = max(v2, v5), min(v2, v5)
			v4, v7 = max(v4, v7), min(v4, v7)
			v6, v8 = max(v6, v8), min(v6, v8)
			// layer 7
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			// layer 8
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
		}
	}
}

// ce11 sorts the 11 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-37 depth-9 network (in-repo depth-targeted search (depth 9, one above the proven optimum 8; best-known size is 35)).
//
//netvet:hotpath
func ce11(vals []int64, wires []int32, count int) {
	wires = wires[:11*count]
	for len(wires) >= 11 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		wires = wires[11:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		// layer 6
		v1, v4 = max(v1, v4), min(v1, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v9 = max(v7, v9), min(v7, v9)
		// layer 7
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v10 = max(v6, v10), min(v6, v10)
		v7, v8 = max(v7, v8), min(v7, v8)
		// layer 8
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
	}
}

// lane11 sorts the 11 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-37 depth-9
// network (in-repo depth-targeted search (depth 9, one above the proven optimum 8; best-known size is 35)).
//
//netvet:hotpath
func lane11(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[11*g : 11*g+11 : 11*g+11]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			// layer 6
			v1, v4 = max(v1, v4), min(v1, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v9 = max(v7, v9), min(v7, v9)
			// layer 7
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v10 = max(v6, v10), min(v6, v10)
			v7, v8 = max(v7, v8), min(v7, v8)
			// layer 8
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
		}
	}
}

// ce12 sorts the 12 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-41 depth-9 network (in-repo depth-targeted search (depth 9, one above the proven optimum 8; best-known size is 39)).
//
//netvet:hotpath
func ce12(vals []int64, wires []int32, count int) {
	wires = wires[:12*count]
	for len(wires) >= 12 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		w11 := wires[11]
		wires = wires[12:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		v11 := vals[w11]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		v10, v11 = max(v10, v11), min(v10, v11)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		v9, v11 = max(v9, v11), min(v9, v11)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		v3, v11 = max(v3, v11), min(v3, v11)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		v7, v11 = max(v7, v11), min(v7, v11)
		// layer 6
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v9, v10 = max(v9, v10), min(v9, v10)
		// layer 7
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v4 = max(v3, v4), min(v3, v4)
		v6, v8 = max(v6, v8), min(v6, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		// layer 8
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
		vals[w11] = v11
	}
}

// lane12 sorts the 12 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-41 depth-9
// network (in-repo depth-targeted search (depth 9, one above the proven optimum 8; best-known size is 39)).
//
//netvet:hotpath
func lane12(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[12*g : 12*g+12 : 12*g+12]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		r11 := &rows[w[11]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			v11 := r11[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			v10, v11 = max(v10, v11), min(v10, v11)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			v9, v11 = max(v9, v11), min(v9, v11)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			v3, v11 = max(v3, v11), min(v3, v11)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			v7, v11 = max(v7, v11), min(v7, v11)
			// layer 6
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v9, v10 = max(v9, v10), min(v9, v10)
			// layer 7
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v4 = max(v3, v4), min(v3, v4)
			v6, v8 = max(v6, v8), min(v6, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			// layer 8
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
			r11[i] = v11
		}
	}
}

// ce13 sorts the 13 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-46 depth-10 network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func ce13(vals []int64, wires []int32, count int) {
	wires = wires[:13*count]
	for len(wires) >= 13 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		w11 := wires[11]
		w12 := wires[12]
		wires = wires[13:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		v11 := vals[w11]
		v12 := vals[w12]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		v10, v11 = max(v10, v11), min(v10, v11)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		v9, v11 = max(v9, v11), min(v9, v11)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		v8, v12 = max(v8, v12), min(v8, v12)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		v3, v11 = max(v3, v11), min(v3, v11)
		v4, v12 = max(v4, v12), min(v4, v12)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v12 = max(v3, v12), min(v3, v12)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		v7, v11 = max(v7, v11), min(v7, v11)
		// layer 6
		v1, v4 = max(v1, v4), min(v1, v4)
		v2, v8 = max(v2, v8), min(v2, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v12 = max(v7, v12), min(v7, v12)
		v9, v10 = max(v9, v10), min(v9, v10)
		// layer 7
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		v10, v12 = max(v10, v12), min(v10, v12)
		// layer 8
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v8 = max(v6, v8), min(v6, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v12 = max(v11, v12), min(v11, v12)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		// layer 10
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
		vals[w11] = v11
		vals[w12] = v12
	}
}

// lane13 sorts the 13 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-46 depth-10
// network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func lane13(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[13*g : 13*g+13 : 13*g+13]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		r11 := &rows[w[11]]
		r12 := &rows[w[12]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			v11 := r11[i]
			v12 := r12[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			v10, v11 = max(v10, v11), min(v10, v11)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			v9, v11 = max(v9, v11), min(v9, v11)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			v8, v12 = max(v8, v12), min(v8, v12)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			v3, v11 = max(v3, v11), min(v3, v11)
			v4, v12 = max(v4, v12), min(v4, v12)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v12 = max(v3, v12), min(v3, v12)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			v7, v11 = max(v7, v11), min(v7, v11)
			// layer 6
			v1, v4 = max(v1, v4), min(v1, v4)
			v2, v8 = max(v2, v8), min(v2, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v12 = max(v7, v12), min(v7, v12)
			v9, v10 = max(v9, v10), min(v9, v10)
			// layer 7
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			v10, v12 = max(v10, v12), min(v10, v12)
			// layer 8
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v8 = max(v6, v8), min(v6, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v12 = max(v11, v12), min(v11, v12)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			// layer 10
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
			r11[i] = v11
			r12[i] = v12
		}
	}
}

// ce14 sorts the 14 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-51 depth-10 network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func ce14(vals []int64, wires []int32, count int) {
	wires = wires[:14*count]
	for len(wires) >= 14 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		w11 := wires[11]
		w12 := wires[12]
		w13 := wires[13]
		wires = wires[14:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		v11 := vals[w11]
		v12 := vals[w12]
		v13 := vals[w13]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		v10, v11 = max(v10, v11), min(v10, v11)
		v12, v13 = max(v12, v13), min(v12, v13)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		v9, v11 = max(v9, v11), min(v9, v11)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		v8, v12 = max(v8, v12), min(v8, v12)
		v9, v13 = max(v9, v13), min(v9, v13)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		v3, v11 = max(v3, v11), min(v3, v11)
		v4, v12 = max(v4, v12), min(v4, v12)
		v5, v13 = max(v5, v13), min(v5, v13)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v12 = max(v3, v12), min(v3, v12)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		v7, v11 = max(v7, v11), min(v7, v11)
		// layer 6
		v1, v4 = max(v1, v4), min(v1, v4)
		v2, v8 = max(v2, v8), min(v2, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v13 = max(v7, v13), min(v7, v13)
		v9, v10 = max(v9, v10), min(v9, v10)
		// layer 7
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v7, v12 = max(v7, v12), min(v7, v12)
		v11, v13 = max(v11, v13), min(v11, v13)
		// layer 8
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v8 = max(v6, v8), min(v6, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		v10, v12 = max(v10, v12), min(v10, v12)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v12 = max(v11, v12), min(v11, v12)
		// layer 10
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
		vals[w11] = v11
		vals[w12] = v12
		vals[w13] = v13
	}
}

// lane14 sorts the 14 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-51 depth-10
// network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func lane14(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[14*g : 14*g+14 : 14*g+14]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		r11 := &rows[w[11]]
		r12 := &rows[w[12]]
		r13 := &rows[w[13]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			v11 := r11[i]
			v12 := r12[i]
			v13 := r13[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			v10, v11 = max(v10, v11), min(v10, v11)
			v12, v13 = max(v12, v13), min(v12, v13)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			v9, v11 = max(v9, v11), min(v9, v11)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			v8, v12 = max(v8, v12), min(v8, v12)
			v9, v13 = max(v9, v13), min(v9, v13)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			v3, v11 = max(v3, v11), min(v3, v11)
			v4, v12 = max(v4, v12), min(v4, v12)
			v5, v13 = max(v5, v13), min(v5, v13)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v12 = max(v3, v12), min(v3, v12)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			v7, v11 = max(v7, v11), min(v7, v11)
			// layer 6
			v1, v4 = max(v1, v4), min(v1, v4)
			v2, v8 = max(v2, v8), min(v2, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v13 = max(v7, v13), min(v7, v13)
			v9, v10 = max(v9, v10), min(v9, v10)
			// layer 7
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v7, v12 = max(v7, v12), min(v7, v12)
			v11, v13 = max(v11, v13), min(v11, v13)
			// layer 8
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v8 = max(v6, v8), min(v6, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			v10, v12 = max(v10, v12), min(v10, v12)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v12 = max(v11, v12), min(v11, v12)
			// layer 10
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
			r11[i] = v11
			r12[i] = v12
			r13[i] = v13
		}
	}
}

// ce15 sorts the 15 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-56 depth-10 network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func ce15(vals []int64, wires []int32, count int) {
	wires = wires[:15*count]
	for len(wires) >= 15 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		w11 := wires[11]
		w12 := wires[12]
		w13 := wires[13]
		w14 := wires[14]
		wires = wires[15:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		v11 := vals[w11]
		v12 := vals[w12]
		v13 := vals[w13]
		v14 := vals[w14]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		v10, v11 = max(v10, v11), min(v10, v11)
		v12, v13 = max(v12, v13), min(v12, v13)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		v9, v11 = max(v9, v11), min(v9, v11)
		v12, v14 = max(v12, v14), min(v12, v14)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		v8, v12 = max(v8, v12), min(v8, v12)
		v9, v13 = max(v9, v13), min(v9, v13)
		v10, v14 = max(v10, v14), min(v10, v14)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		v3, v11 = max(v3, v11), min(v3, v11)
		v4, v12 = max(v4, v12), min(v4, v12)
		v5, v13 = max(v5, v13), min(v5, v13)
		v6, v14 = max(v6, v14), min(v6, v14)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v12 = max(v3, v12), min(v3, v12)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		v7, v11 = max(v7, v11), min(v7, v11)
		v13, v14 = max(v13, v14), min(v13, v14)
		// layer 6
		v1, v4 = max(v1, v4), min(v1, v4)
		v2, v8 = max(v2, v8), min(v2, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v13 = max(v7, v13), min(v7, v13)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v14 = max(v11, v14), min(v11, v14)
		// layer 7
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v7, v12 = max(v7, v12), min(v7, v12)
		v11, v13 = max(v11, v13), min(v11, v13)
		// layer 8
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v8 = max(v6, v8), min(v6, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		v10, v12 = max(v10, v12), min(v10, v12)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v12 = max(v11, v12), min(v11, v12)
		// layer 10
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
		vals[w11] = v11
		vals[w12] = v12
		vals[w13] = v13
		vals[w14] = v14
	}
}

// lane15 sorts the 15 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-56 depth-10
// network (Green-16 channel deletion + local-search compaction (proven depth optimum 9)).
//
//netvet:hotpath
func lane15(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[15*g : 15*g+15 : 15*g+15]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		r11 := &rows[w[11]]
		r12 := &rows[w[12]]
		r13 := &rows[w[13]]
		r14 := &rows[w[14]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			v11 := r11[i]
			v12 := r12[i]
			v13 := r13[i]
			v14 := r14[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			v10, v11 = max(v10, v11), min(v10, v11)
			v12, v13 = max(v12, v13), min(v12, v13)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			v9, v11 = max(v9, v11), min(v9, v11)
			v12, v14 = max(v12, v14), min(v12, v14)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			v8, v12 = max(v8, v12), min(v8, v12)
			v9, v13 = max(v9, v13), min(v9, v13)
			v10, v14 = max(v10, v14), min(v10, v14)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			v3, v11 = max(v3, v11), min(v3, v11)
			v4, v12 = max(v4, v12), min(v4, v12)
			v5, v13 = max(v5, v13), min(v5, v13)
			v6, v14 = max(v6, v14), min(v6, v14)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v12 = max(v3, v12), min(v3, v12)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			v7, v11 = max(v7, v11), min(v7, v11)
			v13, v14 = max(v13, v14), min(v13, v14)
			// layer 6
			v1, v4 = max(v1, v4), min(v1, v4)
			v2, v8 = max(v2, v8), min(v2, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v13 = max(v7, v13), min(v7, v13)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v14 = max(v11, v14), min(v11, v14)
			// layer 7
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v7, v12 = max(v7, v12), min(v7, v12)
			v11, v13 = max(v11, v13), min(v11, v13)
			// layer 8
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v8 = max(v6, v8), min(v6, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			v10, v12 = max(v10, v12), min(v10, v12)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v12 = max(v11, v12), min(v11, v12)
			// layer 10
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
			r11[i] = v11
			r12[i] = v12
			r13[i] = v13
			r14[i] = v14
		}
	}
}

// ce16 sorts the 16 wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-60 depth-10 network (Green 1969 (Knuth TAOCP Fig. 49); best-known size 60, proven depth optimum 9).
//
//netvet:hotpath
func ce16(vals []int64, wires []int32, count int) {
	wires = wires[:16*count]
	for len(wires) >= 16 {
		w0 := wires[0]
		w1 := wires[1]
		w2 := wires[2]
		w3 := wires[3]
		w4 := wires[4]
		w5 := wires[5]
		w6 := wires[6]
		w7 := wires[7]
		w8 := wires[8]
		w9 := wires[9]
		w10 := wires[10]
		w11 := wires[11]
		w12 := wires[12]
		w13 := wires[13]
		w14 := wires[14]
		w15 := wires[15]
		wires = wires[16:]
		v0 := vals[w0]
		v1 := vals[w1]
		v2 := vals[w2]
		v3 := vals[w3]
		v4 := vals[w4]
		v5 := vals[w5]
		v6 := vals[w6]
		v7 := vals[w7]
		v8 := vals[w8]
		v9 := vals[w9]
		v10 := vals[w10]
		v11 := vals[w11]
		v12 := vals[w12]
		v13 := vals[w13]
		v14 := vals[w14]
		v15 := vals[w15]
		// layer 1
		v0, v1 = max(v0, v1), min(v0, v1)
		v2, v3 = max(v2, v3), min(v2, v3)
		v4, v5 = max(v4, v5), min(v4, v5)
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		v10, v11 = max(v10, v11), min(v10, v11)
		v12, v13 = max(v12, v13), min(v12, v13)
		v14, v15 = max(v14, v15), min(v14, v15)
		// layer 2
		v0, v2 = max(v0, v2), min(v0, v2)
		v1, v3 = max(v1, v3), min(v1, v3)
		v4, v6 = max(v4, v6), min(v4, v6)
		v5, v7 = max(v5, v7), min(v5, v7)
		v8, v10 = max(v8, v10), min(v8, v10)
		v9, v11 = max(v9, v11), min(v9, v11)
		v12, v14 = max(v12, v14), min(v12, v14)
		v13, v15 = max(v13, v15), min(v13, v15)
		// layer 3
		v0, v4 = max(v0, v4), min(v0, v4)
		v1, v5 = max(v1, v5), min(v1, v5)
		v2, v6 = max(v2, v6), min(v2, v6)
		v3, v7 = max(v3, v7), min(v3, v7)
		v8, v12 = max(v8, v12), min(v8, v12)
		v9, v13 = max(v9, v13), min(v9, v13)
		v10, v14 = max(v10, v14), min(v10, v14)
		v11, v15 = max(v11, v15), min(v11, v15)
		// layer 4
		v0, v8 = max(v0, v8), min(v0, v8)
		v1, v9 = max(v1, v9), min(v1, v9)
		v2, v10 = max(v2, v10), min(v2, v10)
		v3, v11 = max(v3, v11), min(v3, v11)
		v4, v12 = max(v4, v12), min(v4, v12)
		v5, v13 = max(v5, v13), min(v5, v13)
		v6, v14 = max(v6, v14), min(v6, v14)
		v7, v15 = max(v7, v15), min(v7, v15)
		// layer 5
		v1, v2 = max(v1, v2), min(v1, v2)
		v3, v12 = max(v3, v12), min(v3, v12)
		v4, v8 = max(v4, v8), min(v4, v8)
		v5, v10 = max(v5, v10), min(v5, v10)
		v6, v9 = max(v6, v9), min(v6, v9)
		v7, v11 = max(v7, v11), min(v7, v11)
		v13, v14 = max(v13, v14), min(v13, v14)
		// layer 6
		v1, v4 = max(v1, v4), min(v1, v4)
		v2, v8 = max(v2, v8), min(v2, v8)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v13 = max(v7, v13), min(v7, v13)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v14 = max(v11, v14), min(v11, v14)
		// layer 7
		v2, v4 = max(v2, v4), min(v2, v4)
		v3, v8 = max(v3, v8), min(v3, v8)
		v7, v12 = max(v7, v12), min(v7, v12)
		v11, v13 = max(v11, v13), min(v11, v13)
		// layer 8
		v3, v5 = max(v3, v5), min(v3, v5)
		v6, v8 = max(v6, v8), min(v6, v8)
		v7, v9 = max(v7, v9), min(v7, v9)
		v10, v12 = max(v10, v12), min(v10, v12)
		// layer 9
		v3, v4 = max(v3, v4), min(v3, v4)
		v5, v6 = max(v5, v6), min(v5, v6)
		v7, v8 = max(v7, v8), min(v7, v8)
		v9, v10 = max(v9, v10), min(v9, v10)
		v11, v12 = max(v11, v12), min(v11, v12)
		// layer 10
		v6, v7 = max(v6, v7), min(v6, v7)
		v8, v9 = max(v8, v9), min(v8, v9)
		vals[w0] = v0
		vals[w1] = v1
		vals[w2] = v2
		vals[w3] = v3
		vals[w4] = v4
		vals[w5] = v5
		vals[w6] = v6
		vals[w7] = v7
		vals[w8] = v8
		vals[w9] = v9
		vals[w10] = v10
		vals[w11] = v11
		vals[w12] = v12
		vals[w13] = v13
		vals[w14] = v14
		vals[w15] = v15
	}
}

// lane16 sorts the 16 wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-60 depth-10
// network (Green 1969 (Knuth TAOCP Fig. 49); best-known size 60, proven depth optimum 9).
//
//netvet:hotpath
func lane16(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[16*g : 16*g+16 : 16*g+16]
		r0 := &rows[w[0]]
		r1 := &rows[w[1]]
		r2 := &rows[w[2]]
		r3 := &rows[w[3]]
		r4 := &rows[w[4]]
		r5 := &rows[w[5]]
		r6 := &rows[w[6]]
		r7 := &rows[w[7]]
		r8 := &rows[w[8]]
		r9 := &rows[w[9]]
		r10 := &rows[w[10]]
		r11 := &rows[w[11]]
		r12 := &rows[w[12]]
		r13 := &rows[w[13]]
		r14 := &rows[w[14]]
		r15 := &rows[w[15]]
		for i := range Lanes {
			v0 := r0[i]
			v1 := r1[i]
			v2 := r2[i]
			v3 := r3[i]
			v4 := r4[i]
			v5 := r5[i]
			v6 := r6[i]
			v7 := r7[i]
			v8 := r8[i]
			v9 := r9[i]
			v10 := r10[i]
			v11 := r11[i]
			v12 := r12[i]
			v13 := r13[i]
			v14 := r14[i]
			v15 := r15[i]
			// layer 1
			v0, v1 = max(v0, v1), min(v0, v1)
			v2, v3 = max(v2, v3), min(v2, v3)
			v4, v5 = max(v4, v5), min(v4, v5)
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			v10, v11 = max(v10, v11), min(v10, v11)
			v12, v13 = max(v12, v13), min(v12, v13)
			v14, v15 = max(v14, v15), min(v14, v15)
			// layer 2
			v0, v2 = max(v0, v2), min(v0, v2)
			v1, v3 = max(v1, v3), min(v1, v3)
			v4, v6 = max(v4, v6), min(v4, v6)
			v5, v7 = max(v5, v7), min(v5, v7)
			v8, v10 = max(v8, v10), min(v8, v10)
			v9, v11 = max(v9, v11), min(v9, v11)
			v12, v14 = max(v12, v14), min(v12, v14)
			v13, v15 = max(v13, v15), min(v13, v15)
			// layer 3
			v0, v4 = max(v0, v4), min(v0, v4)
			v1, v5 = max(v1, v5), min(v1, v5)
			v2, v6 = max(v2, v6), min(v2, v6)
			v3, v7 = max(v3, v7), min(v3, v7)
			v8, v12 = max(v8, v12), min(v8, v12)
			v9, v13 = max(v9, v13), min(v9, v13)
			v10, v14 = max(v10, v14), min(v10, v14)
			v11, v15 = max(v11, v15), min(v11, v15)
			// layer 4
			v0, v8 = max(v0, v8), min(v0, v8)
			v1, v9 = max(v1, v9), min(v1, v9)
			v2, v10 = max(v2, v10), min(v2, v10)
			v3, v11 = max(v3, v11), min(v3, v11)
			v4, v12 = max(v4, v12), min(v4, v12)
			v5, v13 = max(v5, v13), min(v5, v13)
			v6, v14 = max(v6, v14), min(v6, v14)
			v7, v15 = max(v7, v15), min(v7, v15)
			// layer 5
			v1, v2 = max(v1, v2), min(v1, v2)
			v3, v12 = max(v3, v12), min(v3, v12)
			v4, v8 = max(v4, v8), min(v4, v8)
			v5, v10 = max(v5, v10), min(v5, v10)
			v6, v9 = max(v6, v9), min(v6, v9)
			v7, v11 = max(v7, v11), min(v7, v11)
			v13, v14 = max(v13, v14), min(v13, v14)
			// layer 6
			v1, v4 = max(v1, v4), min(v1, v4)
			v2, v8 = max(v2, v8), min(v2, v8)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v13 = max(v7, v13), min(v7, v13)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v14 = max(v11, v14), min(v11, v14)
			// layer 7
			v2, v4 = max(v2, v4), min(v2, v4)
			v3, v8 = max(v3, v8), min(v3, v8)
			v7, v12 = max(v7, v12), min(v7, v12)
			v11, v13 = max(v11, v13), min(v11, v13)
			// layer 8
			v3, v5 = max(v3, v5), min(v3, v5)
			v6, v8 = max(v6, v8), min(v6, v8)
			v7, v9 = max(v7, v9), min(v7, v9)
			v10, v12 = max(v10, v12), min(v10, v12)
			// layer 9
			v3, v4 = max(v3, v4), min(v3, v4)
			v5, v6 = max(v5, v6), min(v5, v6)
			v7, v8 = max(v7, v8), min(v7, v8)
			v9, v10 = max(v9, v10), min(v9, v10)
			v11, v12 = max(v11, v12), min(v11, v12)
			// layer 10
			v6, v7 = max(v6, v7), min(v6, v7)
			v8, v9 = max(v8, v9), min(v8, v9)
			r0[i] = v0
			r1[i] = v1
			r2[i] = v2
			r3[i] = v3
			r4[i] = v4
			r5[i] = v5
			r6[i] = v6
			r7[i] = v7
			r8[i] = v8
			r9[i] = v9
			r10[i] = v10
			r11[i] = v11
			r12[i] = v12
			r13[i] = v13
			r14[i] = v14
			r15[i] = v15
		}
	}
}
