package harness

import (
	"fmt"
	"math/bits"
	"sort"
)

// CheckRun is the cross-process correctness oracle: given the sync
// server's per-worker issue log and the values each worker process
// reported drawing, it verifies the counting-network invariants held
// across real OS processes.
//
//   - Issue log: the union of all issued values must be duplicate-free
//     and exactly 0..N-1 (gap-free at quiescence), and its per-wire
//     distribution (value mod width) must have the step property.
//   - Transport: every reported value must have been issued to that
//     same worker, with no duplicates anywhere in the reports.
//   - Delivery: a worker not in lost must report exactly what it was
//     issued; lost workers (killed mid-run) may report any subset of
//     their issues, not necessarily a prefix.
//   - Reported union: duplicate-free, with gaps and step-property
//     slack bounded by the values issued to lost workers but never
//     reported (CheckValues with that bound).
//
// It runs in time and memory linear in the number of values: every
// set is a dense bitset over [0, N) for N issued values, one scratch
// reused across workers and both unions. A value outside that range
// (only a faulty log or report holds one) goes to a small map instead,
// so a reported 1<<62 is refuted without allocating for it.
func CheckRun(width int, issued, reported map[string][]int64, lost map[string]bool) error {
	if width < 1 {
		return fmt.Errorf("harness: check with width %d", width)
	}

	// Workers that report values must appear in the issue log.
	for w, vals := range reported {
		if len(vals) > 0 && len(issued[w]) == 0 {
			return fmt.Errorf("harness: worker %s reported %d values but the server never issued it any", w, len(vals))
		}
	}

	// Per-worker transport and delivery checks, on two halves of one
	// scratch: the worker's issues and its reports, emptied again
	// before the next worker.
	total := 0
	for _, iss := range issued {
		total += len(iss)
	}
	nw := words(total)
	scratch := make([]uint64, 2*nw)
	issSet, repSet := valueSet{bits: scratch[:nw]}, valueSet{bits: scratch[nw:]}
	maxLost := 0
	for w, iss := range issued {
		for _, v := range iss {
			issSet.add(v)
		}
		rep := reported[w]
		for _, v := range rep {
			if !repSet.add(v) {
				return fmt.Errorf("harness: worker %s reported value %d twice", w, v)
			}
			if !issSet.has(v) {
				return fmt.Errorf("harness: worker %s reported value %d it was never issued", w, v)
			}
		}
		issSet.empty(iss)
		repSet.empty(rep)
		if lost[w] {
			maxLost += len(iss) - len(rep)
			continue
		}
		if len(rep) != len(iss) {
			return fmt.Errorf("harness: worker %s reported %d of %d issued values but was not killed", w, len(rep), len(iss))
		}
	}

	// Global invariants on the issue log: the server side of the
	// counting network must be exactly gap-free at quiescence.
	u := newUnion(width, total, 0, scratch)
	for _, vals := range issued {
		if err := u.add(vals); err != nil {
			return fmt.Errorf("harness: issue log: %w", err)
		}
	}
	if err := u.finish(); err != nil {
		return fmt.Errorf("harness: issue log: %w", err)
	}

	// Global invariants on what crossed the process boundary, with
	// slack only for values that died with their worker. Every report
	// is a subset of its worker's issues by now, so the scratch is
	// large enough.
	n := 0
	for _, vals := range reported {
		n += len(vals)
	}
	u = newUnion(width, n, maxLost, scratch)
	for _, vals := range reported {
		if err := u.add(vals); err != nil {
			return fmt.Errorf("harness: reported union: %w", err)
		}
	}
	if err := u.finish(); err != nil {
		return fmt.Errorf("harness: reported union: %w", err)
	}
	return nil
}

// CheckValues verifies a multiset of values drawn from a width-w
// counting-network counter: no negatives, no duplicates, at most
// maxLost values missing below the maximum drawn (the gap bound), and
// the step property of the per-wire distribution within the slack
// those missing values allow. With maxLost == 0 this is the exact
// quiescent contract: values are precisely 0..N-1 and the per-wire
// token counts step down by at most one across the output order.
// Time and memory are linear in len(values), whatever the values.
func CheckValues(width int, values []int64, maxLost int) error {
	if width < 1 {
		return fmt.Errorf("check width %d", width)
	}
	u := newUnion(width, len(values), maxLost, nil)
	if err := u.add(values); err != nil {
		return err
	}
	return u.finish()
}

// union is CheckValues fed in parts: add each part, then finish.
type union struct {
	width, n, maxLost int
	max               int64
	set               valueSet
}

// newUnion prepares a check of n values with maxLost slack, reusing
// scratch when it is large enough. Values below n+min(maxLost, n) are
// kept in the bitset; any other value can only be one in a set that
// fails the gap bound, or one of few beyond the bitset's reach, and
// goes to the overflow map.
func newUnion(width, n, maxLost int, scratch []uint64) *union {
	slack := min(max(maxLost, 0), n)
	nw := words(n + slack)
	if cap(scratch) < nw {
		scratch = make([]uint64, nw)
	}
	bits := scratch[:nw]
	clear(bits)
	return &union{width: width, n: n, maxLost: maxLost, max: -1, set: valueSet{bits: bits}}
}

// add records one part's values, refusing negatives and duplicates.
func (u *union) add(values []int64) error {
	for _, v := range values {
		if v < 0 {
			return fmt.Errorf("negative value %d drawn", v)
		}
		if !u.set.add(v) {
			return fmt.Errorf("value %d drawn twice", v)
		}
		if v > u.max {
			u.max = v
		}
	}
	return nil
}

// finish applies the gap bound and the step property to the values
// added.
func (u *union) finish() error {
	if u.n == 0 {
		return nil
	}
	n := u.max + 1
	missing := int(n) - u.n
	if missing > u.maxLost {
		return fmt.Errorf("gap bound: %d of values 0..%d missing (first: %d), at most %d may be lost",
			missing, u.max, u.set.firstMissing(n), u.maxLost)
	}

	// Per-wire distribution: value v exited the network on wire
	// v mod width. The step property demands counts[i] - counts[j] in
	// {0, 1} for i < j; each lost value relaxes that by at most one.
	counts := u.set.wireCounts(u.width, n)
	for i := 0; i < u.width; i++ {
		for j := i + 1; j < u.width; j++ {
			d := counts[i] - counts[j]
			if d > int64(1+missing) || d < int64(-missing) {
				return fmt.Errorf("step property: wires %d,%d drew %d,%d values (diff %d outside [%d,%d] for %d lost)",
					i, j, counts[i], counts[j], d, -missing, 1+missing, missing)
			}
		}
	}
	return nil
}

// valueSet is a set of int64 values: a dense bitset over
// [0, 64·len(bits)) and an overflow map, allocated on first use, for
// every other value.
type valueSet struct {
	bits []uint64
	over map[int64]bool
}

// words is the bitset length that covers [0, n).
func words(n int) int { return (n + 63) / 64 }

func (s *valueSet) inBits(v int64) bool { return uint64(v) < uint64(len(s.bits))*64 }

// add inserts v and reports whether it was absent.
func (s *valueSet) add(v int64) bool {
	if s.inBits(v) {
		w, m := &s.bits[v>>6], uint64(1)<<(v&63)
		if *w&m != 0 {
			return false
		}
		*w |= m
		return true
	}
	if s.over[v] {
		return false
	}
	if s.over == nil {
		s.over = map[int64]bool{}
	}
	s.over[v] = true
	return true
}

func (s *valueSet) has(v int64) bool {
	if s.inBits(v) {
		return s.bits[v>>6]&(1<<(v&63)) != 0
	}
	return s.over[v]
}

// empty removes the given values, which must include every member.
func (s *valueSet) empty(values []int64) {
	for _, v := range values {
		if s.inBits(v) {
			s.bits[v>>6] &^= 1 << (v & 63)
		}
	}
	s.over = nil
}

// firstMissing returns the smallest value in [0,n) absent from the set
// (-1 if none). Callers ask only when one lies within the bitset.
func (s *valueSet) firstMissing(n int64) int64 {
	for i, w := range s.bits {
		if w != ^uint64(0) {
			if v := int64(i)*64 + int64(bits.TrailingZeros64(^w)); v < n {
				return v
			}
			return -1
		}
	}
	return -1
}

// wireCounts returns how many members lie on each wire v mod width,
// for a set whose members are all below n.
func (s *valueSet) wireCounts(width int, n int64) []int64 {
	counts := make([]int64, width)
	wire := 0
	for _, w := range s.bits[:min(len(s.bits), words(int(n)))] {
		for b := 0; b < 64; b++ {
			counts[wire] += int64(w >> b & 1)
			if wire++; wire == width {
				wire = 0
			}
		}
	}
	for v := range s.over {
		counts[v%int64(width)]++
	}
	return counts
}

// UnionValues flattens a per-worker value map into one sorted slice,
// the form the gap/step reports and fixtures use.
func UnionValues(byWorker map[string][]int64) []int64 {
	var all []int64
	for _, vals := range byWorker {
		all = append(all, vals...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
