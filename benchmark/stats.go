package main

import (
	"sort"
	"time"
)

// tailPercentile is the highest percentile a sample of n supports: the
// largest of 50, 90, 95, 99 and 99.9 with at least ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p    float64
		need int // 10 / (1 - p/100)
	}{{90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}} {
		if n >= c.need {
			best = c.p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median of an unsorted slice (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencies collects one operation type's client-observed durations.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// sorted returns the samples in ascending order.
func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}
