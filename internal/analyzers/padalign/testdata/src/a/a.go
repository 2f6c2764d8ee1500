// Package a is a padalign fixture: structs that honour and violate
// the pinned-size and 64-bit-alignment contracts.
package a

import "sync/atomic"

// good follows runner.asyncHot's rule: contended state first, padding
// derived so the element is exactly 128 bytes.
//
//netvet:padalign 128
type good struct {
	count atomic.Int64
	seq   int64
	_     [112]byte
}

// wrongSize claims 128 bytes but a field was added without re-deriving
// the padding.
//
//netvet:padalign 128
type wrongSize struct { // want `padalign: struct wrongSize is 136 bytes under gc/amd64, but the directive pins 128`
	count atomic.Int64
	seq   int64
	extra int64
	_     [112]byte
}

// misaligned pins the right amd64 size, but its raw counter lands on a
// 4-byte boundary under gc/386, where 64-bit atomics fault.
//
//netvet:padalign 16
type misaligned struct {
	flag bool
	seq  int64 // want `padalign: field misaligned.seq \(int64\) sits at offset 4 under gc/386`
}

// selfAligning is fine everywhere: atomic.Int64 aligns itself.
//
//netvet:padalign 16
type selfAligning struct {
	flag bool
	seq  atomic.Int64
}

//netvet:padalign 8
type notStruct int // want `padalign: directive on non-struct type notStruct`

//netvet:padalign big
type badArg struct { // want `padalign: directive needs a positive byte size, got "big"`
	x int64
}

// unpinned has no directive and is never checked.
type unpinned struct {
	flag bool
	seq  int64
}

// gateObs is two independently padded counters in one 128-byte
// element, so neither shares a cache line with the other or with a
// neighbouring element's.
//
//netvet:padalign 128
type gateObs struct {
	tokens    atomic.Int64
	_         [56]byte
	contended atomic.Int64
	_         [56]byte
}

// paddedCount mirrors obs.PaddedCount: one counter per 128-byte
// element.
//
//netvet:padalign 128
type paddedCount struct {
	v atomic.Int64
	_ [120]byte
}

// hist mirrors obs.Hist: five leading atomics, a 64-bucket atomic
// array, and trailing padding rounding the element to 576 bytes so
// adjacent histograms in a slice never share the watermark line.
//
//netvet:padalign 576
type hist struct {
	count      atomic.Int64
	sum        atomic.Int64
	min        atomic.Int64
	max        atomic.Int64
	casRetries atomic.Int64
	buckets    [64]atomic.Int64
	_          [24]byte
}

// histShrunk is hist after someone halves the bucket count without
// re-deriving the padding — the directive catches the stale pin.
//
//netvet:padalign 576
type histShrunk struct { // want `padalign: struct histShrunk is 320 bytes under gc/amd64, but the directive pins 576`
	count      atomic.Int64
	sum        atomic.Int64
	min        atomic.Int64
	max        atomic.Int64
	casRetries atomic.Int64
	buckets    [32]atomic.Int64
	_          [24]byte
}
