package sim

// LatencyStats accumulates latency samples and reports the summary
// statistics the paper uses (average, median, 99th percentile). It is
// backed by a bounded log₂ histogram — memory stays ~8 KiB no matter
// how many samples an open-loop run feeds it — while N, Avg, Min and
// Max remain exact; percentiles are quantized to at most one histogram
// bucket width (~6% relative).
type LatencyStats struct {
	h        Histogram
	sum      Time
	min, max Time
}

// Add records one sample.
func (s *LatencyStats) Add(t Time) {
	if s.h.n == 0 || t < s.min {
		s.min = t
	}
	if s.h.n == 0 || t > s.max {
		s.max = t
	}
	s.sum += t
	s.h.Add(t)
}

// Merge folds every sample recorded in o into s: histogram buckets add
// element-wise, the sum accumulates exactly, and min/max widen to
// cover both streams. Merging per-shard stats yields fleet-wide
// percentiles identical to a single stats that saw every sample.
func (s *LatencyStats) Merge(o *LatencyStats) {
	if o == nil || o.h.n == 0 {
		return
	}
	if s.h.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.h.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.sum += o.sum
	s.h.Merge(&o.h)
}

// Reset clears the stats to their zero state, ready for reuse as a
// merge scratch buffer without reallocating the ~8 KiB histogram.
func (s *LatencyStats) Reset() {
	s.h.Reset()
	s.sum, s.min, s.max = 0, 0, 0
}

// CountAbove returns how many samples are certainly greater than t
// (see Histogram.CountAbove for the bucket-granularity bound).
func (s *LatencyStats) CountAbove(t Time) uint64 { return s.h.CountAbove(t) }

// N returns the number of samples.
func (s *LatencyStats) N() int { return int(s.h.n) }

// Avg returns the exact arithmetic mean, or 0 with no samples.
func (s *LatencyStats) Avg() Time {
	if s.h.n == 0 {
		return 0
	}
	return s.sum / Time(s.h.n)
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank over the histogram, clamped to the exact observed
// [Min, Max] range; the result is within one bucket width of the
// exact order statistic. Returns 0 with no samples.
func (s *LatencyStats) Percentile(p float64) Time {
	if s.h.n == 0 {
		return 0
	}
	v := s.h.Percentile(p)
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// Median returns the 50th percentile.
func (s *LatencyStats) Median() Time { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *LatencyStats) P99() Time { return s.Percentile(99) }

// Min returns the exact smallest sample, or 0 with no samples.
func (s *LatencyStats) Min() Time {
	if s.h.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact largest sample, or 0 with no samples.
func (s *LatencyStats) Max() Time {
	if s.h.n == 0 {
		return 0
	}
	return s.max
}
