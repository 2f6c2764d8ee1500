package runner

import (
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzKernelVsSort drives every generated kernel with arbitrary int64
// inputs decoded from the fuzz data and checks the output against the
// stdlib sort, descending: the scalar kernel of width 5..16, then the
// lane kernel of width 3..16 over 1..lanes lanes of a block whose
// rows are scattered through the row buffer. Registered in the
// Makefile fuzz targets and the CI fuzz-smoke job.
func FuzzKernelVsSort(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(11), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		w := 5 + int(sel)%(maxKernelWidth-4)
		kern := wideKernel[w]
		if kern == nil {
			t.Fatalf("no kernel for width %d", w)
		}
		vals := decodeValues(data, w)
		want := sortedDesc(vals)
		wires := make([]int32, w)
		for i := range wires {
			wires[i] = int32(i)
		}
		kern(vals, wires)
		for i := range vals {
			if vals[i] != want[i] {
				t.Fatalf("width %d: kernel %v, stdlib sort %v", w, vals, want)
			}
		}

		lw := 3 + int(sel)%(maxKernelWidth-2)
		lane := laneKernel[lw]
		if lane == nil {
			t.Fatalf("no lane kernel for width %d", lw)
		}
		n := lanes
		if len(data) > 0 {
			n = 1 + int(data[0])%lanes
		}
		// Gate wire k lives on row 2k+1 of 2·lw+1: rows between and
		// around the gate's, and lanes past n, must stay untouched.
		rows := make([][lanes]int64, 2*lw+1)
		for r := range rows {
			for i := range rows[r] {
				rows[r][i] = int64(r*lanes + i)
			}
		}
		lwires := make([]int32, lw)
		for k := range lwires {
			lwires[k] = int32(2*k + 1)
		}
		vals = decodeValues(data, lw*n)
		for i := 0; i < n; i++ {
			for k, r := range lwires {
				rows[r][i] = vals[i*lw+k]
			}
		}
		lane(rows, lwires, n)
		for i := 0; i < n; i++ {
			want := sortedDesc(vals[i*lw : (i+1)*lw])
			for k, r := range lwires {
				if got := rows[r][i]; got != want[k] {
					t.Fatalf("width %d, %d lanes, lane %d: row %d holds %d, stdlib sort %v", lw, n, i, r, got, want)
				}
			}
		}
		for r := range rows {
			for i, v := range rows[r] {
				if (r%2 == 0 || i >= n) && v != int64(r*lanes+i) {
					t.Fatalf("width %d, %d lanes: row %d lane %d changed to %d", lw, n, r, i, v)
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
