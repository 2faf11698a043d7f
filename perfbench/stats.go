package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 read off 50 samples is the maximum, not a
// p99.
const minBeyond = 10

// nearestRank returns the 1-based rank of the q-quantile (0 < q <= 1)
// among n sorted samples by the nearest-rank definition, ceil(q·n).
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), q)-1]
}

// supported reports whether n samples leave at least minBeyond samples
// above the q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-nearestRank(n, q) >= minBeyond
}

// summary is the distribution of one set of timings.
type summary struct {
	n        int
	p50, p99 float64
}

// summarize sorts a copy of samples and reads their median and p99.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{n: len(s), p50: percentile(s, 0.50), p99: percentile(s, 0.99)}
}

// String renders the summary, marking a p99 the sample does not support.
func (s summary) String() string {
	p99 := fmt.Sprintf("p99 %.4g", s.p99)
	if !supported(s.n, 0.99) {
		p99 = fmt.Sprintf("p99 n/a (needs %d samples beyond)", minBeyond)
	}
	return fmt.Sprintf("n %d  p50 %.4g  %s", s.n, s.p50, p99)
}

// median returns the nearest-rank median of samples (NaN when empty).
func median(samples []float64) float64 { return summarize(samples).p50 }

// tally counts attempted and failed operations. An operation fails when
// it errors, returns a wrong status or its output differs from the
// reference; each failure is counted once.
type tally struct {
	attempted, failed int
	// first holds the first few failure messages, for the report.
	first []string
}

// add records one attempted operation; a nil err is a success.
func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, err.Error())
	}
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.first {
		if len(t.first) < 5 {
			t.first = append(t.first, m)
		}
	}
}

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
