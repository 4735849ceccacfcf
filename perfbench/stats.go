package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A tail is the highest of them that leaves at least minBeyond
// samples strictly above its rank, so it never rests on a handful of
// outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the sample-count floor of a tail percentile.
const minBeyond = 10

// summary is a latency distribution reduced to what the report prints.
type summary struct {
	N       int     // sample count
	P50     float64 // median
	Tail    float64 // value at TailPct
	TailPct float64 // percentile the tail was taken at
	// TailOK is false when even the median leaves fewer than minBeyond
	// samples beyond it; Tail is then the median.
	TailOK bool
}

// rank returns the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate float error in p
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// tailPercentile returns the highest ladder percentile of n samples with
// at least minBeyond samples beyond its rank, and whether one exists.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n > 0 && n-1-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// summarize sorts a copy of samples and reduces it to a summary.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	return summary{N: len(s), P50: percentile(s, 50), Tail: percentile(s, p), TailPct: p, TailOK: ok}
}

// median returns the median of samples, interpolating between the two
// middle values of an even count.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp normalises a counter delta by the number of operations it was
// spent on; zero operations give zero rather than a division by zero.
func perOp(delta int64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(delta) / float64(ops)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
