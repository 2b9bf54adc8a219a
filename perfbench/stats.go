package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie strictly beyond it,
// so a tail figure never rests on one or two stragglers.
const minBeyond = 10

// medianSamples is the fewest samples whose median has minBeyond samples
// beyond it: a closed loop runs at least this many passes.
const medianSamples = 2 * minBeyond

// samples is a set of timings or sizes in one unit.
type samples []float64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// s and whether it is reportable: at least minBeyond samples must lie
// beyond its rank. An empty set has no percentile.
func (s samples) percentile(p float64) (value float64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(p, n)-1], s.beyond(p) >= minBeyond
}

// rank is the 1-based nearest rank of the p-th percentile among n > 0
// samples.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// median returns the 50th percentile regardless of the reporting rule,
// for figures whose sample count is printed beside them.
func (s samples) median() float64 {
	v, _ := s.percentile(50)
	return v
}

// beyond reports how many samples lie past the p-th percentile's rank.
func (s samples) beyond(p float64) int {
	if len(s) == 0 {
		return 0
	}
	return len(s) - rank(p, len(s))
}

// classes holds one sample set per op class: per (dataset, k) pair on a
// closed loop over fixed ops, a single set elsewhere.
type classes []samples

// percentile returns the geometric mean of the classes' p-th
// percentiles, so each figure is a central statistic of every class
// rather than the seam between two classes of different cost. n counts
// all samples; beyond is the fewest lying beyond the percentile in any
// class, and the figure is reportable only when every class has at least
// minBeyond there.
func (c classes) percentile(p float64) (value float64, n, beyond int, ok bool) {
	if len(c) == 0 {
		return 0, 0, 0, false
	}
	logSum := 0.0
	beyond = math.MaxInt
	for _, s := range c {
		v, _ := s.percentile(p)
		logSum += math.Log(v)
		n += len(s)
		beyond = min(beyond, s.beyond(p))
	}
	return math.Exp(logSum / float64(len(c))), n, beyond, beyond >= minBeyond
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
