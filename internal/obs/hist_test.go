package obs

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

func TestHistObserveBasics(t *testing.T) {
	h := NewHist()
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1106 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("snapshot: %+v", s)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 100 -> 7; 1000 -> 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 7: 1, 10: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	if len(s.Buckets) != 11 {
		t.Errorf("buckets trimmed to %d, want 11", len(s.Buckets))
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist()
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("negative sample not clamped: %+v", s)
	}
}

func TestHistEmptySnapshot(t *testing.T) {
	s := NewHist().Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	if q := s.Quantile(50); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	if sum := s.Summary(); sum.N != 0 {
		t.Errorf("empty summary: %+v", sum)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := NewHist()
	// 1000 identical samples: every quantile must equal the sample.
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	s := h.Snapshot()
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if q := s.Quantile(p); q != 100 {
			t.Errorf("uniform Quantile(%v) = %v, want 100", p, q)
		}
	}

	// Two spread buckets: the quantile estimate must stay within the
	// recorded watermark range and be monotone in p.
	h2 := NewHist()
	for i := 0; i < 90; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(100000)
	}
	s2 := h2.Snapshot()
	last := -1.0
	for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
		q := s2.Quantile(p)
		if q < float64(s2.Min) || q > float64(s2.Max) {
			t.Errorf("Quantile(%v) = %v outside [%d, %d]", p, q, s2.Min, s2.Max)
		}
		if q < last {
			t.Errorf("Quantile not monotone at p=%v: %v < %v", p, q, last)
		}
		last = q
	}
	if q := s2.Quantile(50); q > 16 { // rank 49.5 sits in the 10s bucket [8,15]
		t.Errorf("P50 = %v, want within the low bucket", q)
	}
	if q := s2.Quantile(99); q < 65536 { // rank 989.01 sits in the 100000s bucket
		t.Errorf("P99 = %v, want within the high bucket", q)
	}
}

func TestHistSummaryUsesStats(t *testing.T) {
	h := NewHist()
	for i := 0; i < 100; i++ {
		h.Observe(64) // exact bucket boundary region
	}
	s := h.Snapshot().Summary()
	if s.N != 100 || s.Mean != 64 || s.Min != 64 || s.Max != 64 {
		t.Fatalf("summary: %+v", s)
	}
	if s.P50 != 64 || s.P90 != 64 || s.P99 != 64 || s.Median != s.P50 {
		t.Fatalf("summary quantiles: %+v", s)
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(4) != 15 {
		t.Error("bucket bounds wrong")
	}
	if BucketUpper(histBuckets-1) != math.MaxInt64 {
		t.Error("last bucket must be unbounded")
	}
}

func TestHistConcurrent(t *testing.T) {
	h := NewHist()
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}()
	}
	// Snapshot concurrently with the writers (race detector coverage).
	for i := 0; i < 100; i++ {
		_ = h.Snapshot()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
	if s.Min != 0 || s.Max != int64((workers-1)*1000+per-1) {
		t.Fatalf("watermarks: %+v", s)
	}
}

func TestHistObserveAllocFree(t *testing.T) {
	h := NewHist()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1234) }); n != 0 {
		t.Fatalf("Observe allocates %v per run", n)
	}
}

// TestPaddedLayouts pins the sizes the padalign directives promise, on
// the host platform too (padalign proves gc/amd64; this catches a
// drifted directive before CI's vet lane does).
func TestPaddedLayouts(t *testing.T) {
	if s := unsafe.Sizeof(Hist{}); s != 576 {
		t.Errorf("Hist is %d bytes, want 576", s)
	}
	if s := unsafe.Sizeof(PaddedCount{}); s != 128 {
		t.Errorf("PaddedCount is %d bytes, want 128", s)
	}
}
