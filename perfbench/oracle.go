package main

import (
	"fmt"
	"math/bits"
)

// Output oracles of sort_batch and the count workloads; lease_bulk
// checks its leases with harness.CheckRun.

// checksum is an order-independent fingerprint of a batch: sorting
// permutes values, so any change to the multiset changes it.
type checksum struct{ sum, sq uint64 }

func batchChecksum(b []int64) checksum {
	var c checksum
	for _, v := range b {
		c.sum += uint64(v)
		c.sq += uint64(v) * uint64(v)
	}
	return c
}

// checkSorted reports whether b is ascending with the given checksum.
func checkSorted(b []int64, want checksum) error {
	for i := 1; i < len(b); i++ {
		if b[i-1] > b[i] {
			return fmt.Errorf("batch not ascending at %d: %d > %d", i, b[i-1], b[i])
		}
	}
	if got := batchChecksum(b); got != want {
		return fmt.Errorf("batch checksum %v, want %v", got, want)
	}
	return nil
}

// bitset records drawn counter values; at quiescence the values must be
// exactly 0..N-1, each once.
type bitset struct {
	words []uint64
	n     int64 // values added
}

// add records v and reports false for a negative or repeated value.
func (s *bitset) add(v int64) bool {
	if v < 0 {
		return false
	}
	w := int(v >> 6)
	for w >= len(s.words) {
		s.words = append(s.words, make([]uint64, len(s.words)+1024)...)
	}
	bit := uint64(1) << (v & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	s.n++
	return true
}

// gapFree checks that the recorded values are exactly 0..n-1.
func (s *bitset) gapFree() error {
	full := s.n >> 6
	for w := int64(0); w < full; w++ {
		if s.words[w] != ^uint64(0) {
			return fmt.Errorf("gap: value %d missing of 0..%d", w<<6+int64(bits.TrailingZeros64(^s.words[w])), s.n-1)
		}
	}
	if rem := s.n & 63; rem > 0 && s.words[full] != uint64(1)<<rem-1 {
		return fmt.Errorf("gap: values %d..%d not exactly drawn", full<<6, s.n-1)
	}
	for w := full + 1; w < int64(len(s.words)); w++ {
		if s.words[w] != 0 {
			return fmt.Errorf("gap: value above %d drawn with %d values", s.n-1, s.n)
		}
	}
	return nil
}
