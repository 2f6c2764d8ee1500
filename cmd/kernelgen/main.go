// Command kernelgen emits the branchless compare-exchange kernels of
// internal/runner, generated from the verified sorting-network table
// in internal/optnet, in three files:
//
//   - zkernels.go: the scalar kernels ce5..ce16 (one batch, Plan.Apply)
//     and the portable lane kernels lane2..lane16 (a block of
//     lane-interleaved batches, Plan.ApplyBatches);
//   - zlanes_amd64.s: the same lane kernels in AVX-512 assembly,
//     lane2AVX512..lane16AVX512, one VPMAXSQ and one VPMINSQ per
//     compare-exchange and 8 lanes per register;
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

// minKernelWidth is the smallest generated scalar kernel; widths 2-4
// stay hand-coded in the scalar hot loop (runLayer). Lane kernels are
// generated for every table width, 2 included.
const minKernelWidth = 5

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
	fmt.Printf("kernelgen: wrote %d files in %s (ce%d..ce%d, lane%d..lane%d in Go and AVX-512, all widths verified)\n",
		len(files), *dir, minKernelWidth, optnet.MaxWidth, optnet.MinWidth, optnet.MaxWidth)
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
// compare-exchange kernel; wider gates fall back to the
// gather/insertion-sort/scatter path.
const maxKernelWidth = %d

`, optnet.MaxWidth)

	b.WriteString(`// wideKernel dispatches a wide gate to its generated kernel by gate
// width. Entries below 5 are nil: widths 2-4 are hand-coded in the
// plan hot loop (runLayer).
var wideKernel = [maxKernelWidth + 1]func(vals []int64, wires []int32){
`)
	for w := minKernelWidth; w <= optnet.MaxWidth; w++ {
		fmt.Fprintf(&b, "\t%d: ce%d,\n", w, w)
	}
	b.WriteString("}\n")

	b.WriteString(`
// goLanes is the portable lane kernel table, indexed by gate width.
var goLanes = laneTable{
`)
	for _, n := range nets {
		fmt.Fprintf(&b, "\t%d: lane%d,\n", n.Width, n.Width)
	}
	b.WriteString("}\n")

	for _, n := range nets {
		if n.Width >= minKernelWidth {
			writeKernel(&b, n)
		}
		writeLaneKernel(&b, n)
	}
	return b.Bytes()
}

// writeKernel emits one ceN function: load the gate's wire values into
// registers, run the embedded network as a min/max compare-exchange
// chain (branchless; compiles to conditional moves), store back. The
// w slice is re-sliced to its exact length so the loads and stores
// need no bounds checks, and the chain body itself touches registers
// only.
func writeKernel(b *bytes.Buffer, n *optnet.Network) {
	w := n.Width
	fmt.Fprintf(b, `
// ce%d sorts the %d wire values descending (largest to wires[0]) with
// the embedded size-%d depth-%d network (%s).
//
//netvet:hotpath
func ce%d(vals []int64, w []int32) {
	w = w[:%d:%d]
`, w, w, n.Size, n.Depth, n.Source, w, w, w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\tv%d := vals[w[%d]]\n", i, i)
	}
	writeChain(b, n, "\t")
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\tvals[w[%d]] = v%d\n", i, i)
	}
	b.WriteString("}\n")
}

// writeLaneKernel emits one laneN function: the same chain as ceN, run
// for each of count gates (wires holds their wire lists back to back)
// across all `lanes` lanes of a lane-interleaved block (rows[r][i] is
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
func lane%d(rows [][lanes]int64, wires []int32, count int) {
	for g := range count {
		w := wires[%d*g : %d*g+%d : %d*g+%d]
`, w, w, n.Size, n.Depth, n.Source, w, w, w, w, w, w)
	for i := 0; i < w; i++ {
		fmt.Fprintf(b, "\t\tr%d := &rows[w[%d]]\n", i, i)
	}
	b.WriteString("\t\tfor i := range lanes {\n")
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
// indexed by gate width. Run it only where hasAVX512F holds.
var avx512Lanes = laneTable{
`)
	for _, n := range nets {
		fmt.Fprintf(&b, "\t%d: lane%dAVX512,\n", n.Width, n.Width)
	}
	b.WriteString("}\n")
	for _, n := range nets {
		fmt.Fprintf(&b, `
// lane%dAVX512 is lane%d in AVX-512 assembly.
//
//go:noescape
func lane%dAVX512(rows [][lanes]int64, wires []int32, count int)
`, n.Width, n.Width, n.Width)
	}
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
