package runner

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzKernelVsSort drives every generated kernel with arbitrary int64
// inputs decoded from the fuzz data and checks the output against the
// stdlib sort, descending: the scalar kernel and the lane kernel of
// every lane kernel table this CPU runs, of width 2..16, each over a
// run of 1..3 gates whose wires are scattered through the value or
// row buffer, every lane filled. Registered in the Makefile fuzz
// targets and the CI fuzz-smoke job.
func FuzzKernelVsSort(f *testing.F) {
	tables := []*laneTable{&goLanes}
	if asm := asmLanes(); asm != nil {
		tables = append(tables, asm)
	} else {
		f.Log("CPU or OS lacks AVX-512F with ZMM state: fuzzing the portable lane kernels only")
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(11), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		lw := 2 + int(sel)%(maxKernelWidth-1)
		count := 1
		if len(data) > 0 {
			count = 1 + int(data[0])%3
		}
		// Wire k of gate g is 2(g·lw+k)+1: the wires (rows) between
		// and around the gates' must stay untouched.
		lwires := make([]int32, lw*count)
		for j := range lwires {
			lwires[j] = int32(2*j + 1)
		}

		vals := decodeValues(data, lw*count)
		onWire := make([]int64, 2*lw*count+1)
		for r := range onWire {
			onWire[r] = int64(-r)
		}
		for j, r := range lwires {
			onWire[r] = vals[j]
		}
		scalarKernels[lw](onWire, lwires, count)
		for g := range count {
			want := sortedDesc(vals[g*lw : (g+1)*lw])
			for k, r := range lwires[g*lw : (g+1)*lw] {
				if onWire[r] != want[k] {
					t.Fatalf("width %d, %d gates, gate %d: wire %d holds %d, stdlib sort %v", lw, count, g, r, onWire[r], want)
				}
			}
		}
		for r := 0; r < len(onWire); r += 2 {
			if onWire[r] != int64(-r) {
				t.Fatalf("width %d, %d gates: off-gate wire %d changed to %d", lw, count, r, onWire[r])
			}
		}

		rows := make([][Lanes]int64, 2*lw*count+1)
		vals = decodeValues(data, lw*count*Lanes)
		for ti, table := range tables {
			for r := range rows {
				for i := range rows[r] {
					rows[r][i] = int64(r*Lanes + i)
				}
			}
			for j, r := range lwires {
				for i := range Lanes {
					rows[r][i] = vals[i*len(lwires)+j]
				}
			}
			table[lw](rows, lwires, count)
			for g := range count {
				for i := range Lanes {
					in := vals[i*len(lwires)+g*lw : i*len(lwires)+(g+1)*lw]
					want := sortedDesc(in)
					for k, r := range lwires[g*lw : (g+1)*lw] {
						if got := rows[r][i]; got != want[k] {
							t.Fatalf("table %d, width %d, %d gates, gate %d lane %d: row %d holds %d, stdlib sort %v", ti, lw, count, g, i, r, got, want)
						}
					}
				}
			}
			for r := 0; r < len(rows); r += 2 {
				for i, v := range rows[r] {
					if v != int64(r*Lanes+i) {
						t.Fatalf("table %d, width %d, %d gates: row %d lane %d changed to %d", ti, lw, count, r, i, v)
					}
				}
			}
		}
	})
}

// decodeValues fills count values from data: 8 bytes per value while
// they last, then single bytes, then zeros.
func decodeValues(data []byte, count int) []int64 {
	vals := make([]int64, count)
	for i := range vals {
		if len(data) >= 8 {
			vals[i] = int64(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
		} else if len(data) > 0 {
			vals[i] = int64(data[0]) - 128
			data = data[1:]
		}
	}
	return vals
}

func sortedDesc(vals []int64) []int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return s
}
