package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 98},
		{500, 98},
		{499, 97},
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailName(99.9); got != "p99.9" {
		t.Errorf("tailName(99.9) = %q", got)
	}
	if got := tailName(99); got != "p99" {
		t.Errorf("tailName(99) = %q", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}, {0.1, time.Millisecond}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}
