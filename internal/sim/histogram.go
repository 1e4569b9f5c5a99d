package sim

import "math/bits"

// Histogram is a bounded log₂-bucketed histogram of non-negative Time
// samples, HDR-style: each power-of-two octave is split into
// histSubCount linear sub-buckets, so the relative quantization error
// is bounded by 1/histSubCount (~6%) and the absolute error of any
// reported percentile is at most one bucket width. Memory is a fixed
// ~8 KiB regardless of sample count — the replacement for the
// append-every-sample slice that made long open-loop runs O(ops) RAM.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	// histSubBits sets the linear split: 2^histSubBits sub-buckets per
	// octave.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: values
	// below histSubCount index identically (exact), octaves 4..62 get
	// histSubCount buckets each.
	histBuckets = (62-histSubBits+1)*histSubCount + histSubCount
)

// histIndex maps a sample to its bucket.
func histIndex(v Time) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	exp := bits.Len64(u) - 1
	if exp < histSubBits {
		return int(u)
	}
	sub := int((u >> uint(exp-histSubBits)) & (histSubCount - 1))
	return (exp-histSubBits)*histSubCount + histSubCount + sub
}

// histLow returns the smallest value mapping to bucket i.
func histLow(i int) Time {
	if i < histSubCount {
		return Time(i)
	}
	oct := i / histSubCount // >= 1
	sub := i % histSubCount
	return Time(uint64(histSubCount+sub) << uint(oct-1))
}

// histWidth returns the width of bucket i — the quantization bound a
// percentile read from this bucket carries.
func histWidth(i int) Time {
	if i < histSubCount {
		return 1
	}
	return Time(uint64(1) << uint(i/histSubCount-1))
}

// Add records one sample.
func (h *Histogram) Add(v Time) {
	h.counts[histIndex(v)]++
	h.n++
}

// N returns the number of samples recorded.
func (h *Histogram) N() uint64 { return h.n }

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank over the bucket counts: the lower bound of the bucket
// holding the rank-th smallest sample, which is within one bucket
// width of the exact order statistic. Returns 0 with no samples.
func (h *Histogram) Percentile(p float64) Time {
	if h.n == 0 {
		return 0
	}
	rank := uint64(p/100*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			return histLow(i)
		}
	}
	return histLow(histBuckets - 1)
}

// Merge folds every sample recorded in o into h. Bucket counts add
// element-wise, so a merged histogram is indistinguishable from one
// that saw both sample streams directly — the primitive that lets
// per-shard histograms combine into fleet-wide percentiles.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i := 0; i < histBuckets; i++ {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
}

// CountAbove returns how many recorded samples are certainly greater
// than t: the sum of counts in buckets whose entire range lies above
// t. Samples sharing t's bucket are excluded (they may be <= t), so
// the result is a lower bound within one bucket's population of the
// exact count — monotone in the sample stream, which makes it a
// delta-able "slow op" counter for burn-rate windows.
func (h *Histogram) CountAbove(t Time) uint64 {
	if h.n == 0 {
		return 0
	}
	var cum uint64
	for i := histIndex(t) + 1; i < histBuckets; i++ {
		cum += h.counts[i]
	}
	return cum
}

// Reset clears the histogram to its zero state.
func (h *Histogram) Reset() {
	h.counts = [histBuckets]uint64{}
	h.n = 0
}

// Buckets invokes fn for every non-empty bucket in ascending value
// order with the bucket's lower bound, width and count.
func (h *Histogram) Buckets(fn func(low, width Time, count uint64)) {
	for i := 0; i < histBuckets; i++ {
		if h.counts[i] > 0 {
			fn(histLow(i), histWidth(i), h.counts[i])
		}
	}
}
