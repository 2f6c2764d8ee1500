package harness

// The map-based value oracle CheckRun and CheckValues replaced, kept as
// the reference FuzzCheckRunVsReference compares them with: one
// map[int64]bool per set, and the issued and reported unions checked as
// concatenated slices.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"countnet/internal/core"
	"countnet/internal/harness/syncsrv"
)

// checkRunRef is the reference CheckRun.
func checkRunRef(width int, issued, reported map[string][]int64, lost map[string]bool) error {
	if width < 1 {
		return fmt.Errorf("harness: check with width %d", width)
	}

	// Workers that report values must appear in the issue log.
	for w, vals := range reported {
		if len(vals) > 0 && len(issued[w]) == 0 {
			return fmt.Errorf("harness: worker %s reported %d values but the server never issued it any", w, len(vals))
		}
	}

	// Per-worker transport and delivery checks.
	maxLost := 0
	for w, iss := range issued {
		issSet := make(map[int64]bool, len(iss))
		for _, v := range iss {
			issSet[v] = true
		}
		rep := reported[w]
		repSet := make(map[int64]bool, len(rep))
		for _, v := range rep {
			if repSet[v] {
				return fmt.Errorf("harness: worker %s reported value %d twice", w, v)
			}
			repSet[v] = true
			if !issSet[v] {
				return fmt.Errorf("harness: worker %s reported value %d it was never issued", w, v)
			}
		}
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
	var issuedAll []int64
	for _, vals := range issued {
		issuedAll = append(issuedAll, vals...)
	}
	if err := checkValuesRef(width, issuedAll, 0); err != nil {
		return fmt.Errorf("harness: issue log: %w", err)
	}

	// Global invariants on what crossed the process boundary, with
	// slack only for values that died with their worker.
	var reportedAll []int64
	for _, vals := range reported {
		reportedAll = append(reportedAll, vals...)
	}
	if err := checkValuesRef(width, reportedAll, maxLost); err != nil {
		return fmt.Errorf("harness: reported union: %w", err)
	}
	return nil
}

// checkValuesRef verifies a multiset of values drawn from a width-w
// counting-network counter: no negatives, no duplicates, at most
// maxLost values missing below the maximum drawn (the gap bound), and
// the step property of the per-wire distribution within the slack
// those missing values allow. With maxLost == 0 this is the exact
// quiescent contract: values are precisely 0..N-1 and the per-wire
// token counts step down by at most one across the output order.
func checkValuesRef(width int, values []int64, maxLost int) error {
	if width < 1 {
		return fmt.Errorf("check width %d", width)
	}
	if len(values) == 0 {
		return nil
	}
	var max int64 = -1
	seen := make(map[int64]bool, len(values))
	for _, v := range values {
		if v < 0 {
			return fmt.Errorf("negative value %d drawn", v)
		}
		if seen[v] {
			return fmt.Errorf("value %d drawn twice", v)
		}
		seen[v] = true
		if v > max {
			max = v
		}
	}
	n := max + 1
	missing := int(n) - len(values)
	if missing > maxLost {
		return fmt.Errorf("gap bound: %d of values 0..%d missing (first: %d), at most %d may be lost",
			missing, max, firstMissingRef(seen, n), maxLost)
	}

	// Per-wire distribution: value v exited the network on wire
	// v mod width. The step property demands counts[i] - counts[j] in
	// {0, 1} for i < j; each lost value relaxes that by at most one.
	counts := make([]int64, width)
	for v := range seen {
		counts[v%int64(width)]++
	}
	for i := 0; i < width; i++ {
		for j := i + 1; j < width; j++ {
			d := counts[i] - counts[j]
			if d > int64(1+missing) || d < int64(-missing) {
				return fmt.Errorf("step property: wires %d,%d drew %d,%d values (diff %d outside [%d,%d] for %d lost)",
					i, j, counts[i], counts[j], d, -missing, 1+missing, missing)
			}
		}
	}
	return nil
}

// firstMissingRef returns the smallest value in [0,n) absent from seen.
func firstMissingRef(seen map[int64]bool, n int64) int64 {
	for v := int64(0); v < n; v++ {
		if !seen[v] {
			return v
		}
	}
	return -1
}

// Mutants FuzzCheckRunVsReference applies to a valid log and report.
const (
	mutNone = iota
	mutDuplicate
	mutDrop
	mutForeign
	mutHuge
	mutLost
	mutants
)

// genRun builds a valid issue log over workers workers of n values in
// total (0..n-1 dealt in strided runs of random length, as a hub
// issues leases), reported in full, and applies the given mutant.
func genRun(r *rand.Rand, width, workers, n, mutant int) (issued, reported map[string][]int64, lost map[string]bool) {
	issued = map[string][]int64{}
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = WorkerID(i)
	}
	next := make([]int64, width) // next value on each wire
	for i := range next {
		next[i] = int64(i)
	}
	for left := n; left > 0; {
		id := ids[r.Intn(workers)]
		k := 1 + r.Intn(min(left, 3*width))
		for j := 0; j < k; j++ {
			// The smallest unissued value, so 0..n-1 stays gap-free.
			wire := 0
			for i := range next {
				if next[i] < next[wire] {
					wire = i
				}
			}
			issued[id] = append(issued[id], next[wire])
			next[wire] += int64(width)
		}
		left -= k
	}
	reported = map[string][]int64{}
	for id, vals := range issued {
		reported[id] = append([]int64(nil), vals...)
	}
	lost = map[string]bool{}
	pick := func(m map[string][]int64) string {
		if len(m) == 0 {
			return ids[0]
		}
		keys := make([]string, 0, len(m))
		for _, id := range ids {
			if len(m[id]) > 0 {
				keys = append(keys, id)
			}
		}
		if len(keys) == 0 {
			return ids[0]
		}
		return keys[r.Intn(len(keys))]
	}
	some := func(vals []int64) int64 {
		if len(vals) == 0 {
			return 0
		}
		return vals[r.Intn(len(vals))]
	}
	target := reported
	if r.Intn(2) == 0 {
		target = issued
	}
	id := pick(target)
	switch mutant {
	case mutDuplicate:
		target[id] = append(target[id], some(target[pick(target)]))
	case mutDrop:
		if vals := target[id]; len(vals) > 0 {
			i := r.Intn(len(vals))
			target[id] = append(vals[:i:i], vals[i+1:]...)
		}
	case mutForeign:
		// A value issued to another worker, or to nobody.
		v := int64(n + r.Intn(3))
		if r.Intn(2) == 0 {
			v = some(issued[pick(issued)])
		}
		target[id] = append(target[id], v)
	case mutHuge:
		v := []int64{1 << 62, math.MaxInt64, -1, math.MinInt64, int64(n) * 1000}[r.Intn(5)]
		vals := target[id]
		if len(vals) > 0 && r.Intn(2) == 0 {
			vals[r.Intn(len(vals))] = v
		} else {
			target[id] = append(vals, v)
		}
	case mutLost:
		// A killed worker reports a random subset, not always a prefix;
		// sometimes a second worker loses values without being killed.
		id = pick(issued)
		lost[id] = true
		var kept []int64
		for _, v := range reported[id] {
			if r.Intn(3) != 0 {
				kept = append(kept, v)
			}
		}
		reported[id] = kept
		if other := pick(issued); other != id && r.Intn(3) == 0 {
			reported[other] = reported[other][:len(reported[other])/2]
		}
	}
	if r.Intn(8) == 0 {
		reported[WorkerID(workers)] = nil // a worker that reports nothing
	}
	return issued, reported, lost
}

// FuzzCheckRunVsReference: on random logs, clean and mutated, CheckRun
// and the map reference agree on pass or fail; with one worker, where
// map order cannot pick which fault is found first, they agree on the
// error text too. CheckValues is compared the same way on each
// worker's report.
func FuzzCheckRunVsReference(f *testing.F) {
	for m := 0; m < mutants; m++ {
		f.Add(int64(m), uint8(1), uint8(4), uint16(40), uint8(m))
		f.Add(int64(100+m), uint8(3), uint8(16), uint16(300), uint8(m))
	}
	f.Fuzz(func(t *testing.T, seed int64, workers, width uint8, n uint16, mutant uint8) {
		r := rand.New(rand.NewSource(seed))
		w, k := 1+int(width%32), 1+int(workers%6)
		issued, reported, lost := genRun(r, w, k, int(n%2048), int(mutant)%mutants)
		got := CheckRun(w, issued, reported, lost)
		want := checkRunRef(w, issued, reported, lost)
		if (got == nil) != (want == nil) || (k == 1 && errText(got) != errText(want)) {
			t.Fatalf("CheckRun = %v, reference = %v\nissued %v\nreported %v\nlost %v", got, want, issued, reported, lost)
		}
		maxLost := r.Intn(3)
		for id, vals := range reported {
			got, want := CheckValues(w, vals, maxLost), checkValuesRef(w, vals, maxLost)
			if errText(got) != errText(want) {
				t.Fatalf("CheckValues(%s, maxLost %d) = %v, reference = %v\nvalues %v", id, maxLost, got, want, vals)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCheckRunHugeValueAllocatesLittle: a reported value far beyond
// the issued range fails as never issued, and the check's allocation
// stays bounded by the issued count, not by the value.
func TestCheckRunHugeValueAllocatesLittle(t *testing.T) {
	issued := map[string][]int64{"w0": {0, 1, 2, 3}}
	reported := map[string][]int64{"w0": {0, 1 << 62}}
	err := CheckRun(2, issued, reported, nil)
	if err == nil || !strings.Contains(err.Error(), "never issued") {
		t.Fatalf("err = %v, want never issued", err)
	}
	allocs := testing.AllocsPerRun(20, func() { _ = CheckRun(2, issued, reported, nil) })
	if allocs > 8 {
		t.Errorf("CheckRun on a 4-value log allocates %v times", allocs)
	}
	if err := CheckValues(2, []int64{0, 1 << 62}, 0); err == nil || !strings.Contains(err.Error(), "gap bound") {
		t.Fatalf("CheckValues = %v, want gap bound", err)
	}
	if err := CheckValues(2, []int64{1 << 62, 1 << 62}, 0); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("CheckValues = %v, want drawn twice", err)
	}
}

// BenchmarkCheckRunEpoch times CheckRun on the shape one lease_bulk
// epoch checks: 512 leases of 1,024 values from a hub on L(4,4)
// (width 16), one worker, reported exactly as issued.
func BenchmarkCheckRunEpoch(b *testing.B) {
	net, err := core.L(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	hub := syncsrv.NewHub(net)
	defer hub.Close()
	if _, err := hub.Register("w0"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if _, err := hub.Draw("w0", 1024); err != nil {
			b.Fatal(err)
		}
	}
	issued := hub.IssueLog()
	reported := map[string][]int64{"w0": issued["w0"]}
	if len(issued["w0"]) != 512*1024 {
		b.Fatalf("issued %d values", len(issued["w0"]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckRun(net.Width(), issued, reported, nil); err != nil {
			b.Fatal(err)
		}
	}
}
