package main

import (
	"testing"
	"time"
)

func samples(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Microsecond
	}
	return s
}

func TestLatencyReportsMedianAloneBelowForty(t *testing.T) {
	p50, p99 := latency(samples(39))
	if p99 != p50 || p50 != 20*time.Microsecond {
		t.Fatalf("39 samples: p50 %v, p99 %v", p50, p99)
	}
}

func TestLatencyP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 time.Duration // samples(n) holds 1..n us
	}{{40, 20500, 20500}, {128, 64500, 64500}, {999, 500000, 500000}, {1000, 500500, 990000}, {5000, 2500500, 4950000}} {
		p50, p99 := latency(samples(c.n))
		if p50 != c.p50*time.Nanosecond || p99 != c.p99*time.Nanosecond {
			t.Errorf("%d samples: p50 %v, p99 %v; want %v, %v", c.n, p50, p99, c.p50*time.Nanosecond, c.p99*time.Nanosecond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %g", m)
	}
}
