// Code generated by cmd/kernelgen from internal/optnet; DO NOT EDIT.
// Regenerate: go generate ./internal/runner (or make generate).
// Drift gate: make generate-check (run by CI on every push).

package runner

// avx512Lanes is the AVX-512 lane kernel table (zlanes_amd64.s),
// with its 8×8 tile transposes. Run it only where hasAVX512F holds.
var avx512Lanes = laneTable{
	sort: laneKernels{
		2:  lane2AVX512,
		3:  lane3AVX512,
		4:  lane4AVX512,
		5:  lane5AVX512,
		6:  lane6AVX512,
		7:  lane7AVX512,
		8:  lane8AVX512,
		9:  lane9AVX512,
		10: lane10AVX512,
		11: lane11AVX512,
		12: lane12AVX512,
		13: lane13AVX512,
		14: lane14AVX512,
		15: lane15AVX512,
		16: lane16AVX512,
	},
	in:  transposeInAVX512,
	out: transposeOutAVX512,
}

// lane2AVX512 is lane2 in AVX-512 assembly.
//
//go:noescape
func lane2AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane3AVX512 is lane3 in AVX-512 assembly.
//
//go:noescape
func lane3AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane4AVX512 is lane4 in AVX-512 assembly.
//
//go:noescape
func lane4AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane5AVX512 is lane5 in AVX-512 assembly.
//
//go:noescape
func lane5AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane6AVX512 is lane6 in AVX-512 assembly.
//
//go:noescape
func lane6AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane7AVX512 is lane7 in AVX-512 assembly.
//
//go:noescape
func lane7AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane8AVX512 is lane8 in AVX-512 assembly.
//
//go:noescape
func lane8AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane9AVX512 is lane9 in AVX-512 assembly.
//
//go:noescape
func lane9AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane10AVX512 is lane10 in AVX-512 assembly.
//
//go:noescape
func lane10AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane11AVX512 is lane11 in AVX-512 assembly.
//
//go:noescape
func lane11AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane12AVX512 is lane12 in AVX-512 assembly.
//
//go:noescape
func lane12AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane13AVX512 is lane13 in AVX-512 assembly.
//
//go:noescape
func lane13AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane14AVX512 is lane14 in AVX-512 assembly.
//
//go:noescape
func lane14AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane15AVX512 is lane15 in AVX-512 assembly.
//
//go:noescape
func lane15AVX512(rows [][Lanes]int64, wires []int32, count int)

// lane16AVX512 is lane16 in AVX-512 assembly.
//
//go:noescape
func lane16AVX512(rows [][Lanes]int64, wires []int32, count int)

// transposeInAVX512 moves the tiles of batches 8g..8g+7 and wires
// 8c..8c+7 of block, for g < groups and c < chunks, into rows:
// rows[w][i] = block[i][w].
//
//go:noescape
func transposeInAVX512(rows [][Lanes]int64, block [][]int64, groups, chunks int)

// transposeOutAVX512 moves the same tiles back out of rows in output
// order: block[i][k] = rows[out[k]][i].
//
//go:noescape
func transposeOutAVX512(block [][]int64, rows [][Lanes]int64, out []int32, groups, chunks int)
