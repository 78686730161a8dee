package obs

import "math/bits"

// Latency histogram with fixed log-spaced buckets, in the HDR-histogram
// family: every power-of-two octave is split into 1<<histSubBits
// linearly spaced sub-buckets, so any recorded value lands in a bucket
// whose width is at most value/2^histSubBits — a bounded 6.25% relative
// quantization error at histSubBits = 4 — while the whole [0, 2^63)
// range fits in under a thousand counters. The counts array is embedded
// in the struct and indexing is pure bit arithmetic, so the record path
// allocates nothing and the same value sequence always produces the
// same counts: histograms are safe to put under a bit-identity gate
// (the golden file's serve/ rows hash them).

const (
	// histSubBits is the sub-bucket resolution: 1<<histSubBits sub-buckets
	// per octave, bounding relative error by 1/2^histSubBits.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	histSubMask  = histSubCount - 1

	// histBuckets covers every uint64 magnitude: values below
	// 2*histSubCount are recorded exactly (idx == value); larger values
	// use (msb-histSubBits) full octaves of histSubCount sub-buckets
	// offset past the exact region.
	histBuckets = (64-histSubBits)*histSubCount + histSubCount
)

// Histogram is a fixed-bucket log-spaced value histogram (intended for
// virtual-time latencies in nanoseconds). The zero value is ready to
// use; Record never allocates.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < 2*histSubCount {
		return int(u) // exact region: one value per bucket
	}
	msb := bits.Len64(u) - 1
	shift := uint(msb - histSubBits)
	return int(shift)<<histSubBits + int((u>>shift)&histSubMask) + histSubCount
}

// HistBucketBounds returns the inclusive value range [lo, hi] covered by
// bucket idx — the inverse of the record-path index mapping.
func HistBucketBounds(idx int) (lo, hi int64) {
	if idx < 2*histSubCount {
		return int64(idx), int64(idx)
	}
	shift := uint(idx>>histSubBits) - 1
	sub := int64(idx & histSubMask)
	lo = (histSubCount + sub) << shift
	hi = lo + (1 << shift) - 1
	return lo, hi
}

// Record adds one value. Negative values clamp to zero. Zero-alloc.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Percentile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the ceil(q*n)-th smallest recorded value,
// clamped to the observed max (so the top bucket reports the true
// maximum, and values in the exact region report exactly). q <= 0
// returns Min, q >= 1 returns Max, and an empty histogram returns 0.
// The result is a deterministic function of the recorded multiset.
func (h *Histogram) Percentile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.n)
	var cum int64
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) >= target {
			_, hi := HistBucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge adds o's recorded values into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// HistBucket is one non-empty bucket in a histogram snapshot.
type HistBucket struct {
	Idx   int   `json:"idx"`
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in value order — the exact
// content of the histogram, suitable for JSON recording and replay
// comparison.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := HistBucketBounds(i)
		out = append(out, HistBucket{Idx: i, Lo: lo, Hi: hi, Count: c})
	}
	return out
}
