// Command kernelgen emits the branchless compare-exchange kernels of
// internal/runner, generated from the verified sorting-network table
// in internal/optnet, in three files:
//
//   - zkernels.go: the scalar run kernels ce2..ce16 (one batch,
//     Plan.Apply) and the portable lane kernels lane2..lane16 (a block
//     of lane-interleaved batches, Plan.ApplyBatches), each with its
//     table indexed by gate width;
//   - zlanes_amd64.s: the same lane kernels in AVX-512 assembly,
//     lane2AVX512..lane16AVX512, one VPMAXSQ and one VPMINSQ per
//     compare-exchange and 8 lanes per register, and the transposes
//     of a block's 8×8 tiles into rows and back out in output order,
//     transposeInAVX512 and transposeOutAVX512;
//   - zlanes_amd64.go: their //go:noescape declarations and table.
//
// Every shape emits the same comparator chain (writeChain, and
// writeAsmChain in the same order), so they cannot drift apart.
//
// Every embedded width is re-verified at generation time — the full
// exhaustive 0-1 sweep plus structural and metadata checks — so a
// kernel for an incorrect or mislabeled network cannot be written.
//
// Usage:
//
//	kernelgen -dir .                  # write (go:generate mode)
//	kernelgen -check -dir <path>      # drift gate: regenerate in
//	                                  # memory, fail if a file on
//	                                  # disk differs
//
// The emitted Go files are gofmt-clean (rendered through go/format),
// so the CI gofmt gate applies to them unchanged.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"

	"countnet/internal/optnet"
)

// File is one generated file: its name within the output directory
// and its contents.
type File struct {
	Name string
	Src  []byte
}

func main() {
	dir := flag.String("dir", ".", "output directory (package runner)")
	check := flag.Bool("check", false, "verify the generated files are up to date instead of writing them")
	flag.Parse()

	if err := optnet.VerifyAll(); err != nil {
		fmt.Fprintf(os.Stderr, "kernelgen: table verification failed: %v\n", err)
		os.Exit(1)
	}
	files, err := Generate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelgen: %v\n", err)
		os.Exit(1)
	}
	for _, f := range files {
		path := filepath.Join(*dir, f.Name)
		if *check {
			disk, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kernelgen: -check: %v\n", err)
				os.Exit(1)
			}
			if !bytes.Equal(disk, f.Src) {
				fmt.Fprintf(os.Stderr, "kernelgen: %s is stale against internal/optnet; rerun `go generate ./internal/runner` (or `make generate`)\n", path)
				os.Exit(1)
			}
			continue
		}
		if err := os.WriteFile(path, f.Src, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "kernelgen: %v\n", err)
			os.Exit(1)
		}
	}
	if *check {
		fmt.Printf("kernelgen: %d files in %s are up to date (%d widths verified)\n", len(files), *dir, optnet.MaxWidth-optnet.MinWidth+1)
		return
	}
	fmt.Printf("kernelgen: wrote %d files in %s (ce%d..ce%d, lane%d..lane%d in Go and AVX-512, AVX-512 tile transposes, all widths verified)\n",
		len(files), *dir, optnet.MinWidth, optnet.MaxWidth, optnet.MinWidth, optnet.MaxWidth)
}

const header = "// Code generated by cmd/kernelgen from internal/optnet; DO NOT EDIT.\n" +
	"// Regenerate: go generate ./internal/runner (or make generate).\n" +
	"// Drift gate: make generate-check (run by CI on every push).\n\n"

// Generate renders every kernel file, the Go ones gofmt-formatted.
func Generate() ([]File, error) {
	nets := make([]*optnet.Network, 0, optnet.MaxWidth-optnet.MinWidth+1)
	for w := optnet.MinWidth; w <= optnet.MaxWidth; w++ {
		n, ok := optnet.For(w)
		if !ok {
			return nil, fmt.Errorf("no embedded network for width %d", w)
		}
		nets = append(nets, n)
	}
	kernels, err := gofmt(generateKernels(nets))
	if err != nil {
		return nil, err
	}
	decls, err := gofmt(generateAsmDecls(nets))
	if err != nil {
		return nil, err
	}
	return []File{
		{"zkernels.go", kernels},
		{"zlanes_amd64.go", decls},
		{"zlanes_amd64.s", generateAsm(nets)},
	}, nil
}

func gofmt(src []byte) ([]byte, error) {
	out, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("generated source does not format: %v", err)
	}
	return out, nil
}

// generateKernels renders zkernels.go: the scalar kernels, the
// portable lane kernels and their dispatch tables.
func generateKernels(nets []*optnet.Network) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package runner\n\n")

	fmt.Fprintf(&b, `// maxKernelWidth is the widest gate with a generated straight-line
// compare-exchange kernel; CompilePlan expands wider gates into
// merge-exchange networks of 2-gates (expandWide in plan.go).
const maxKernelWidth = %d

`, optnet.MaxWidth)

	b.WriteString(`// scalarKernels is the scalar run kernel table of Plan.Apply, indexed
// by gate width.
var scalarKernels = [maxKernelWidth + 1]func(vals []int64, wires []int32, count int){
`)
	for _, n := range nets {
		fmt.Fprintf(&b, "\t%d: ce%d,\n", n.Width, n.Width)
	}
	b.WriteString("}\n")

	b.WriteString(`
// goLanes is the portable lane kernel table. It has no tile
// transposes: runBlock's loops move every value in and out of a block.
var goLanes = laneTable{sort: laneKernels{
`)
	for _, n := range nets {
		fmt.Fprintf(&b, "\t%d: lane%d,\n", n.Width, n.Width)
	}
	b.WriteString("}}\n")

	for _, n := range nets {
		writeKernel(&b, n)
		writeLaneKernel(&b, n)
	}
	return b.Bytes()
}

// writeKernel emits one ceN function: for each of count gates (wires
// holds their wire lists back to back), load the gate's wire indices
// and values into locals, run the embedded network as a min/max
// compare-exchange chain (branchless; compiles to conditional moves)
// and store the values back. The wire list is consumed from its front,
// so its reads need no bounds checks, and the stores reuse the index
// locals, so they need none either: only the value loads are checked.
func writeKernel(b *bytes.Buffer, n *optnet.Network) {
	w := n.Width
	fmt.Fprintf(b, `
// ce%d sorts the %d wire values of each of count gates descending
// (largest to the gate's first wire), whose wire lists lie back to back
// in wires, with the embedded size-%d depth-%d network (%s).
//
//netvet:hotpath
func ce%d(vals []int64, wires []int32, count int) {
	wires = wires[:%d*count]
	for len(wires) >= %d {
`, w, w, n.Size, n.Depth, n.Source, w, w, w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\tw%d := wires[%d]\n", i, i)
	}
	fmt.Fprintf(b, "\t\twires = wires[%d:]\n", w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\tv%d := vals[w%d]\n", i, i)
	}
	writeChain(b, n, "\t\t")
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\tvals[w%d] = v%d\n", i, i)
	}
	b.WriteString("\t}\n}\n")
}

// writeLaneKernel emits one laneN function: the same chain as ceN, run
// for each of count gates (wires holds their wire lists back to back)
// across all `Lanes` lanes of a lane-interleaved block (rows[r][i] is
// wire r's value in the block's i-th batch). Each row is taken as a
// pointer to its array, so the lane loop needs no bounds checks.
func writeLaneKernel(b *bytes.Buffer, n *optnet.Network) {
	w := n.Width
	fmt.Fprintf(b, `
// lane%d sorts the %d wire values of each lane of a block descending
// (largest to the gate's first row), for count gates whose wire lists
// lie back to back in wires, with the embedded size-%d depth-%d
// network (%s).
//
//netvet:hotpath
func lane%d(rows [][Lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[%d*g : %d*g+%d : %d*g+%d]
`, w, w, n.Size, n.Depth, n.Source, w, w, w, w, w, w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\tr%d := &rows[w[%d]]\n", i, i)
	}
	b.WriteString("\t\tfor i := range Lanes {\n")
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\t\tv%d := r%d[i]\n", i, i)
	}
	writeChain(b, n, "\t\t\t")
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\t\tr%d[i] = v%d\n", i, i)
	}
	b.WriteString("\t\t}\n\t}\n}\n")
}

// writeChain emits the network's comparators, layer by layer, as
// `vA, vB = max(vA, vB), min(vA, vB)` on the locals v0..v(w-1).
func writeChain(b *bytes.Buffer, n *optnet.Network, indent string) {
	for li, layer := range n.Layers {
		fmt.Fprintf(b, "%s// layer %d\n", indent, li+1)
		for _, c := range layer {
			fmt.Fprintf(b, "%sv%d, v%d = max(v%d, v%d), min(v%d, v%d)\n", indent, c.A, c.B, c.A, c.B, c.A, c.B)
		}
	}
}

// generateAsmDecls renders zlanes_amd64.go: the Go declarations of the
// assembly lane kernels and their table.
func generateAsmDecls(nets []*optnet.Network) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString("package runner\n\n")
	b.WriteString(`// avx512Lanes is the AVX-512 lane kernel table (zlanes_amd64.s),
// with its 8×8 tile transposes. Run it only where hasAVX512F holds.
var avx512Lanes = laneTable{
	sort: laneKernels{
`)
	for _, n := range nets {
		fmt.Fprintf(&b, "\t\t%d: lane%dAVX512,\n", n.Width, n.Width)
	}
	b.WriteString(`	},
	in:  transposeInAVX512,
	out: transposeOutAVX512,
}
`)
	for _, n := range nets {
		fmt.Fprintf(&b, `
// lane%dAVX512 is lane%d in AVX-512 assembly.
//
//go:noescape
func lane%dAVX512(rows [][Lanes]int64, wires []int32, count int)
`, n.Width, n.Width, n.Width)
	}
	b.WriteString(`
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
`)
	return b.Bytes()
}

// Register use of the assembly kernels. rowShift converts a wire index
// to its row's byte offset: a row is lanes·8 = 128 bytes, two ZMM
// registers of 8 lanes each, the low half at offset 0 and the high
// half at halfBytes.
const (
	numZMM    = 32
	rowShift  = 7
	halfBytes = 64
)

// Shape of the transpose tiles: tile batches × tile wires, one ZMM
// register per batch or row half; a batch's slice header is
// headerBytes long.
const (
	tile        = 8
	rowBytes    = 1 << rowShift
	headerBytes = 24
)

// generateAsm renders zlanes_amd64.s, one TEXT block per width.
func generateAsm(nets []*optnet.Network) []byte {
	var b bytes.Buffer
	b.WriteString(header)
	b.WriteString(`#include "textflag.h"

// Each laneNAVX512(rows, wires, count) sorts count gates of width N
// across the 16 lanes of a block: for every gate it loads the gate's
// rows into ZMM registers, runs the comparator chain of laneN with one
// VPMINSQ and one VPMAXSQ per compare-exchange, and stores the rows
// back. A compare-exchange of wires a and b writes the minimum to a
// free register, which then holds wire b, and the maximum over a, so
// it needs no move. Registers: DI rows, SI the gate's wire list, CX
// gates left, AX a row offset.
`)
	for _, n := range nets {
		writeAsmLane(&b, n)
	}
	writeAsmTransposes(&b)
	return b.Bytes()
}

// writeAsmLane emits one laneNAVX512 function. A pass holds both
// 8-lane halves of every wire when 2N registers and a spare fit in the
// 32 ZMM registers, and otherwise (N = 16) runs the chain once per
// half.
func writeAsmLane(b *bytes.Buffer, n *optnet.Network) {
	w := n.Width
	fmt.Fprintf(b, `
// func lane%dAVX512(rows [][16]int64, wires []int32, count int)
// size-%d depth-%d network (%s)
TEXT ·lane%dAVX512(SB), NOSPLIT, $0-56
	MOVQ rows_base+0(FP), DI
	MOVQ wires_base+24(FP), SI
	MOVQ count+48(FP), CX
	TESTQ CX, CX
	JLE done

gate:
`, w, n.Size, n.Depth, n.Source, w)
	passes := [][]int{{0, halfBytes}}
	if 2*w+1 > numZMM {
		passes = [][]int{{0}, {halfBytes}}
	}
	for _, halves := range passes {
		writeAsmPass(b, n, halves)
	}
	fmt.Fprintf(b, `	ADDQ $%d, SI
	DECQ CX
	JNZ gate

done:
	VZEROUPPER
	RET
`, 4*w)
}

// writeAsmPass loads the given halves (byte offsets within a row) of
// every wire of the gate, runs the chain on them and stores them back.
func writeAsmPass(b *bytes.Buffer, n *optnet.Network, halves []int) {
	w := n.Width
	// reg[k][h] is the register holding wire k's half h.
	reg := make([][]int, w)
	next := 0
	for k := range reg {
		reg[k] = make([]int, len(halves))
		fmt.Fprintf(b, "\tMOVL %d(SI), AX\n\tSHLQ $%d, AX\n", 4*k, rowShift)
		for h, off := range halves {
			reg[k][h] = next
			fmt.Fprintf(b, "\tVMOVDQU64 %s(DI)(AX*1), Z%d\n", disp(off), next)
			next++
		}
	}
	var free []int
	for r := next; r < numZMM; r++ {
		free = append(free, r)
	}
	for li, layer := range n.Layers {
		fmt.Fprintf(b, "\t// layer %d\n", li+1)
		for _, c := range layer {
			for h := range halves {
				a, lo, t := reg[c.A][h], reg[c.B][h], free[0]
				fmt.Fprintf(b, "\tVPMINSQ Z%d, Z%d, Z%d\n\tVPMAXSQ Z%d, Z%d, Z%d\n", lo, a, t, lo, a, a)
				free = append(free[1:], lo)
				reg[c.B][h] = t
			}
		}
	}
	for k := range reg {
		fmt.Fprintf(b, "\tMOVL %d(SI), AX\n\tSHLQ $%d, AX\n", 4*k, rowShift)
		for h, off := range halves {
			fmt.Fprintf(b, "\tVMOVDQU64 Z%d, %s(DI)(AX*1)\n", reg[k][h], disp(off))
		}
	}
}

// disp renders a memory operand displacement, empty for zero.
func disp(off int) string {
	if off == 0 {
		return ""
	}
	return fmt.Sprint(off)
}

// writeAsmTransposes emits transposeInAVX512 and transposeOutAVX512.
// Both walk the tiles of the block group by group (8 batches, one
// 8-lane half of every row) and, within a group, chunk by chunk (8
// wires, or 8 output positions): load 8 registers, transpose them with
// writeTranspose8, store 8 registers. The transpose in loads batch i's
// 8 values from its slice and stores row j's half; the transpose out
// loads the row half of output position k through out[k] and stores
// batch i's 8 outputs. Registers: DI rows (advanced to the group's
// half), SI the group's batch headers, BX groups left, DX chunks, R9
// chunks left, CX the chunk's byte offset within a batch, R8 the
// chunk's first row (in) or R10 its out entries (out), AX a batch's
// values or a row offset.
func writeAsmTransposes(b *bytes.Buffer) {
	fmt.Fprintf(b, `
// func transposeInAVX512(rows [][16]int64, block [][]int64, groups, chunks int)
TEXT ·transposeInAVX512(SB), NOSPLIT, $0-64
	MOVQ rows_base+0(FP), DI
	MOVQ block_base+24(FP), SI
	MOVQ groups+48(FP), BX
	MOVQ chunks+56(FP), DX
	TESTQ BX, BX
	JLE done
	TESTQ DX, DX
	JLE done

group:
	MOVQ DI, R8
	XORQ CX, CX
	MOVQ DX, R9

chunk:
`)
	for i := range tile {
		fmt.Fprintf(b, "\tMOVQ %s(SI), AX\n\tVMOVDQU64 (AX)(CX*1), Z%d\n", disp(headerBytes*i), i)
	}
	writeTranspose8(b)
	for j := range tile {
		fmt.Fprintf(b, "\tVMOVDQU64 Z%d, %s(R8)\n", j, disp(rowBytes*j))
	}
	writeTileLoop(b, fmt.Sprintf("ADDQ $%d, R8", tile*rowBytes))

	fmt.Fprintf(b, `
// func transposeOutAVX512(block [][]int64, rows [][16]int64, out []int32, groups, chunks int)
TEXT ·transposeOutAVX512(SB), NOSPLIT, $0-88
	MOVQ block_base+0(FP), SI
	MOVQ rows_base+24(FP), DI
	MOVQ groups+72(FP), BX
	MOVQ chunks+80(FP), DX
	TESTQ BX, BX
	JLE done
	TESTQ DX, DX
	JLE done

group:
	MOVQ out_base+48(FP), R10
	XORQ CX, CX
	MOVQ DX, R9

chunk:
`)
	for k := range tile {
		fmt.Fprintf(b, "\tMOVL %s(R10), AX\n\tSHLQ $%d, AX\n\tVMOVDQU64 (DI)(AX*1), Z%d\n", disp(4*k), rowShift, k)
	}
	writeTranspose8(b)
	for i := range tile {
		fmt.Fprintf(b, "\tMOVQ %s(SI), AX\n\tVMOVDQU64 Z%d, (AX)(CX*1)\n", disp(headerBytes*i), i)
	}
	writeTileLoop(b, fmt.Sprintf("ADDQ $%d, R10", 4*tile))
}

// writeTileLoop closes a transpose's chunk loop, whose cursor step is
// next, and its group loop.
func writeTileLoop(b *bytes.Buffer, next string) {
	fmt.Fprintf(b, `	ADDQ $%d, CX
	%s
	DECQ R9
	JNZ chunk
	ADDQ $%d, SI
	ADDQ $%d, DI
	DECQ BX
	JNZ group

done:
	VZEROUPPER
	RET
`, 8*tile, next, headerBytes*tile, halfBytes)
}

// writeTranspose8 emits the 8×8 int64 transpose of Z0..Z7 into
// Z0..Z7: qword c of register r moves to qword r of register c, through
// Z8..Z23. VPUNPCKLQDQ and VPUNPCKHQDQ interleave each pair of rows
// within 128-bit lanes, so a[2p] holds the even columns of rows 2p and
// 2p+1 and a[2p+1] their odd columns, a column pair per lane. Two
// rounds of VSHUFI64X2 then gather lanes: imm 0x88 takes lanes 0 and 2
// of each source, 0xdd lanes 1 and 3. The first round pairs row pairs
// (b holds two columns of four rows), the second pairs the row halves.
func writeTranspose8(b *bytes.Buffer) {
	const a, bb = 8, 16 // first registers of the two intermediate rounds
	imm := [2]string{"$0x88", "$0xdd"}
	b.WriteString("\t// transpose: interleave row pairs\n")
	for p := range tile / 2 {
		fmt.Fprintf(b, "\tVPUNPCKLQDQ Z%d, Z%d, Z%d\n", 2*p+1, 2*p, a+2*p)
		fmt.Fprintf(b, "\tVPUNPCKHQDQ Z%d, Z%d, Z%d\n", 2*p+1, 2*p, a+2*p+1)
	}
	// b[4q+2s+h] holds columns s+2h and s+2h+4 of rows 4q..4q+3:
	// s picks the even (0) or odd (1) columns, h the lanes.
	b.WriteString("\t// transpose: gather four rows per column pair\n")
	for q := range 2 {
		for s := range 2 {
			for h := range 2 {
				fmt.Fprintf(b, "\tVSHUFI64X2 %s, Z%d, Z%d, Z%d\n", imm[h], a+4*q+s+2, a+4*q+s, bb+4*q+2*s+h)
			}
		}
	}
	b.WriteString("\t// transpose: gather eight rows per column\n")
	for s := range 2 {
		for h := range 2 {
			m := 2*s + h
			for h2 := range 2 {
				fmt.Fprintf(b, "\tVSHUFI64X2 %s, Z%d, Z%d, Z%d\n", imm[h2], bb+4+m, bb+m, s+2*h+4*h2)
			}
		}
	}
}
