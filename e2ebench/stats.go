package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: a p99 over 500 samples rests on five values and is noise.
const minBeyond = 10

// tailLadder lists the tail percentiles considered, highest first.
var tailLadder = []float64{99.9, 99, 98, 97, 95, 90, 75, 50}

// tailPercentile returns the highest percentile on the ladder that has at
// least minBeyond of n samples beyond it, or 0 when even the median has too
// few. p99 therefore needs 1000 samples.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// tailName names a tail percentile the way metric names do: 99 → "p99",
// 99.9 → "p99.9".
func tailName(p float64) string { return "p" + trimFloat(p) }

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.1f", f)
	if s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s
}

// percentile returns the nearest-rank p-th percentile of samples, which it
// sorts in place. Zero samples give 0.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// ms converts a duration to milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float samples; it sorts them in place.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
