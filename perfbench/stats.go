package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples: the smallest
// sample whose rank is at least ceil(q*n), with q=0 giving the minimum.
// The result is always one of the samples, so it can never fall outside
// the observed range (unlike a histogram bucket bound). It sorts a copy
// and returns NaN for an empty input.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// interval is one request's client-side lifetime.
type interval struct{ start, end time.Time }

// busyTime is the length of the union of the intervals: the time during
// which at least one request was in flight. Dividing completed requests
// by it gives the service rate without counting the client's untimed
// input generation between requests.
func busyTime(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}
