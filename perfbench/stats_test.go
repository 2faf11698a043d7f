package main

import (
	"errors"
	"math"
	"testing"
)

func TestNearestRankPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.90, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// Exact products must not round up a rank: 0.99·1000 is rank 990.
	if r := nearestRank(1000, 0.99); r != 990 {
		t.Errorf("nearestRank(1000, 0.99) = %d, want 990", r)
	}
	if r := nearestRank(3, 0.5); r != 2 {
		t.Errorf("nearestRank(3, 0.5) = %d, want 2", r)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{20, 0.50, true},   // rank 10, 10 beyond
		{19, 0.50, false},  // rank 10, 9 beyond
		{5, 0.50, false},
		{0, 0.50, false},
		{100, 0.99, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	s := summarize(in)
	if s.n != 3 || s.p50 != 2 || s.p99 != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if in[0] != 3 || in[1] != 1 {
		t.Error("summarize sorted its input in place")
	}
}

func TestTallyFailFrac(t *testing.T) {
	var a tally
	if a.failFrac() != 0 {
		t.Error("an empty tally has fail_frac 0")
	}
	a.add(nil)
	a.add(errors.New("wrong bytes"))
	a.add(nil)
	a.add(nil)
	var b tally
	for i := 0; i < 7; i++ {
		b.add(errors.New("status 503"))
	}
	b.add(nil)
	a.merge(b)
	if a.attempted != 12 || a.failed != 8 {
		t.Fatalf("attempted %d failed %d, want 12 and 8", a.attempted, a.failed)
	}
	if got := a.failFrac(); got != 8.0/12 {
		t.Errorf("failFrac = %v, want %v", got, 8.0/12)
	}
	if len(a.first) != 5 || a.first[0] != "wrong bytes" {
		t.Errorf("first failures = %q, want 5 kept, oldest first", a.first)
	}
}
