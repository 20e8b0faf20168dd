package main

import (
	"math"
	"sort"
	"time"
)

// rank is the 1-based nearest rank of the q-quantile of n samples.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// percentile returns the q-quantile (0..1) of sorted samples by the
// nearest-rank rule.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// latency returns the median and the nearest-rank p99 of a latency
// distribution. The median of an even count is the mean of the two
// middle samples: a workload's message kinds come in equal numbers, so
// the middle often falls between two kinds, and either sample alone
// would jump between them from seed to seed. A p99 needs ten samples
// beyond it, so 1000 samples in all. With fewer, no percentile above the
// median is reported: p99 then equals the median, which below forty
// samples is also the choosing rule's "median alone".
func latency(samples []time.Duration) (p50, p99 time.Duration) {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n > 0 {
		p50 = (s[(n-1)/2] + s[n/2]) / 2
	}
	if len(s) < minTailSamples {
		return p50, p50
	}
	return p50, percentile(s, 0.99)
}

// median of float values (used for repeated set-up timings).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
