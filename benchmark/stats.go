package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a percentile for
// it to be reported: a percentile read off fewer tail samples than this
// is noise, not a measurement.
const minBeyond = 10

// dist is an exact sample distribution: every sample is kept and sorted,
// so a percentile is a measured value, never a histogram bucket edge.
type dist []int64

// sorted sorts d in place and returns it.
func (d dist) sorted() dist {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// pct is the nearest-rank p-quantile of a sorted distribution and the
// number of samples strictly above it. ok is false when fewer than
// minBeyond samples lie above it.
func (d dist) pct(p float64) (v int64, beyond int, ok bool) {
	if len(d) == 0 {
		return 0, 0, false
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	v = d[i]
	j := sort.Search(len(d), func(k int) bool { return d[k] > v })
	beyond = len(d) - j
	return v, beyond, beyond >= minBeyond
}

// zeroShare is the fraction of samples that are exactly 0.
func (d dist) zeroShare() float64 {
	if len(d) == 0 {
		return 0
	}
	n := 0
	for _, v := range d {
		if v == 0 {
			n++
		}
	}
	return float64(n) / float64(len(d))
}

// median of float samples (the mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported figure. note carries the sample count and the
// tail size for percentiles, printed beside the value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// metrics is an ordered metric list; the benchmark prints it as a table
// and as the result JSON.
type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name: name, value: value, unit: unit})
}

// addPct adds the p-quantile of d (virtual ns) in microseconds, noting
// the sample count and the samples beyond it. A percentile without
// minBeyond samples above it reads 0 and is marked as not reported.
func (m *metrics) addPct(name string, d dist, p float64) {
	v, beyond, ok := d.pct(p)
	note := fmt.Sprintf("n=%d beyond=%d", len(d), beyond)
	val := float64(v) / 1e3
	if !ok {
		val = 0
		note += " (too few samples beyond; not reported)"
	}
	*m = append(*m, metric{name: name, value: val, unit: "us", note: note})
}

// get returns the named metric's value.
func (m metrics) get(name string) (float64, bool) {
	for _, x := range m {
		if x.name == name {
			return x.value, true
		}
	}
	return 0, false
}
