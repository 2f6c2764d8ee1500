package obs

import (
	"math"
	"math/bits"
	"sync/atomic"

	"countnet/internal/stats"
)

// histBuckets is the number of power-of-two buckets. Bucket i counts
// samples v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1]
// (bucket 0 holds exactly v == 0); the last bucket additionally
// absorbs everything wider. 64 buckets cover the full int64 range.
const histBuckets = 64

// SampleEvery is the sampling period of the per-value latency
// histograms (a counter's next_ns and traverse_ns): exactly one value
// in SampleEvery is timed, chosen by a tick the drawing goroutine
// already owns, so an unsampled value reads no clock and writes no
// shared histogram. A power of two, so the choice is one mask test.
const SampleEvery = 64

// Sampled reports whether the n-th event (1-based) of a SampleEvery
// sampler is the one to time: the SampleEvery-th, 2·SampleEvery-th, …
//
//netvet:hotpath
func Sampled(n int64) bool { return n&(SampleEvery-1) == 0 }

// Hist is a lock-free histogram over non-negative int64 samples
// (latencies in nanoseconds, batch sizes, queue depths) with
// power-of-two bucket boundaries. Observe is wait-free on the sum and
// the bucket counters (the sample count is their total, summed by
// Snapshot); the min/max watermarks use a CAS loop whose
// retries are themselves counted (casRetries) — the only place the obs
// layer can spin, surfaced so it can never hide contention of its own.
//
// A histogram carries its sampling period: one recorded sample stands
// for that many events. Its snapshot reports the period and the
// Prometheus exposition scales counts and sums by it; the recording
// side never looks at it (callers decide what to sample).
//
// The struct is padded to a whole number of cache lines so adjacent
// histograms in a containing struct or slice never share a line.
//
//netvet:padalign 576
type Hist struct {
	sum        atomic.Int64
	min        atomic.Int64 // valid only once a bucket is non-zero; NewHist seeds MaxInt64
	max        atomic.Int64
	casRetries atomic.Int64
	buckets    [histBuckets]atomic.Int64
	every      int64 // sampling period, fixed at construction
	_          [24]byte
}

// NewHist returns an empty histogram that records every event (period
// 1). Hist must be constructed through NewHist or NewSampledHist (the
// min watermark needs a non-zero seed).
func NewHist() *Hist { return newHist(1) }

// NewSampledHist returns an empty histogram of period SampleEvery, for
// a recorder that observes one event in SampleEvery.
func NewSampledHist() *Hist { return newHist(SampleEvery) }

func newHist(every int64) *Hist {
	h := &Hist{every: every}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIdx maps a non-negative sample to its bucket.
func bucketIdx(v int64) int {
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i: the
// largest sample the bucket can hold (0 for bucket 0, 2^i - 1
// otherwise; the last bucket is unbounded and reports MaxInt64).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one sample. Negative samples are clamped to zero
// (they can only arise from clock anomalies). Safe for concurrent use;
// performs no allocation.
//
//netvet:hotpath
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketIdx(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
		h.casRetries.Add(1)
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
		h.casRetries.Add(1)
	}
}

// ObserveSince records Now() - start, the standard latency pattern:
//
//	start := obs.Now()
//	... phase ...
//	h.ObserveSince(start)
//
//netvet:hotpath
func (h *Hist) ObserveSince(start int64) { h.Observe(Now() - start) }

// HistSnapshot is an atomic-free copy of a histogram's state. Buckets
// are trimmed to the highest non-empty one. Count, Sum and Buckets
// count recorded samples; Every is the period they were taken at, so
// Count·Every estimates the events the histogram stands for. Mean and
// quantiles need no scaling.
type HistSnapshot struct {
	Count      int64   `json:"count"`
	Sum        int64   `json:"sum"`
	Min        int64   `json:"min"`
	Max        int64   `json:"max"`
	CASRetries int64   `json:"cas_retries,omitempty"`
	Buckets    []int64 `json:"buckets"`         // Buckets[i] = samples with bucketIdx == i
	Every      int64   `json:"every,omitempty"` // sampling period; 0 reads as 1
}

// Period returns the sampling period, reading an unset Every (a
// snapshot built by hand or by an older producer) as 1.
func (s HistSnapshot) Period() int64 {
	if s.Every < 1 {
		return 1
	}
	return s.Every
}

// Snapshot copies the current state; Count is the sum of the buckets
// copied. Concurrent Observes may straddle the copy (sum and buckets
// are read independently); the result is a consistent-enough
// monitoring view, exact at quiescence.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Sum:        h.sum.Load(),
		CASRetries: h.casRetries.Load(),
		Every:      h.every,
	}
	top := 0
	var b [histBuckets]int64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		s.Count += b[i]
		if b[i] > 0 {
			top = i + 1
		}
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	s.Buckets = append([]int64(nil), b[:top]...)
	return s
}

// Quantile estimates the p-th percentile (0..100) from the bucket
// counts: the target rank's bucket is found by cumulative count and
// the value interpolated linearly inside the bucket's range, clamped
// to the recorded min/max watermarks. Returns 0 for an empty
// histogram.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(s.Count-1)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		// Bucket i spans ranks [cum, cum+n-1].
		if rank <= float64(cum+n-1) {
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(BucketUpper(i))
			if i >= histBuckets-1 {
				hi = float64(s.Max)
			}
			frac := 0.0
			if n > 1 {
				frac = (rank - float64(cum)) / float64(n-1)
			}
			est := lo + (hi-lo)*frac
			if est < float64(s.Min) {
				est = float64(s.Min)
			}
			if est > float64(s.Max) {
				est = float64(s.Max)
			}
			return est
		}
		cum += n
	}
	return float64(s.Max)
}

// Summary renders the histogram as a stats.Summary, the same shape the
// benchmark harness reports: exact N/Mean/Min/Max, bucket-interpolated
// P50/P90/P99 (Stddev is not tracked and reads 0).
func (s HistSnapshot) Summary() stats.Summary {
	if s.Count == 0 {
		return stats.Summary{}
	}
	out := stats.Summary{
		N:    int(s.Count),
		Mean: float64(s.Sum) / float64(s.Count),
		Min:  float64(s.Min),
		Max:  float64(s.Max),
		P50:  s.Quantile(50),
		P90:  s.Quantile(90),
		P99:  s.Quantile(99),
	}
	out.Median = out.P50
	return out
}
