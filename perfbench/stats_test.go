package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		samples []float64
		q       float64
		want    float64
	}{
		{[]float64{7}, 0, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.75, 3},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{15, 20, 35, 40, 50}, 0.3, 20},
		{[]float64{15, 20, 35, 40, 50}, 0.4, 20},
		{[]float64{15, 20, 35, 40, 50}, 0.5, 35},
		{[]float64{15, 20, 35, 40, 50}, 0.99, 50},
		// 100 samples 1..100: p99 is the 99th value, p50 the 50th.
		{seq(100), 0.99, 99},
		{seq(100), 0.5, 50},
		{seq(1000), 0.99, 990},
	}
	for _, c := range cases {
		if got := quantile(c.samples, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.samples, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestQuantileWithinObservedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		s := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range s {
			s[i] = rng.ExpFloat64() * 10
			lo, hi = math.Min(lo, s[i]), math.Max(hi, s[i])
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			got := quantile(s, q)
			if got < lo || got > hi {
				t.Fatalf("quantile(q=%v) = %v outside [%v, %v]", q, got, lo, hi)
			}
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	quantile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("input reordered: %v", s)
	}
}

func TestBusyTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{
		{at(0), at(10)},
		{at(5), at(15)},  // overlaps the first
		{at(20), at(30)}, // gap of 5ms before it
		{at(22), at(25)}, // nested
	}
	if got, want := busyTime(ivs), 25*time.Millisecond; got != want {
		t.Fatalf("busyTime = %v, want %v", got, want)
	}
	if busyTime(nil) != 0 {
		t.Fatal("busyTime of no intervals should be 0")
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}
