package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. A tail is the highest rung with at least minBeyond samples above
// it, so a short run reports an honest p90 instead of a p99 that rests on
// one or two samples.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// medians returns the median of each sample set.
func medians(sets [][]float64) []float64 {
	out := make([]float64, len(sets))
	for i, xs := range sets {
		out[i] = median(xs)
	}
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of the ascending slice s by the
// nearest-rank rule and how many samples lie strictly after that rank.
func nearestRank(s []float64, p float64) (v float64, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tail is a tail percentile as reported: its value, the percentile it was
// actually taken at, and the sample count behind it. Max marks a sample
// too small for any percentile, where the maximum is reported instead.
type tail struct {
	Value   float64
	Pct     float64
	Samples int
	Max     bool
}

func (t tail) String() string {
	if t.Max {
		return fmt.Sprintf("max of %d samples", t.Samples)
	}
	return fmt.Sprintf("p%g of %d samples", t.Pct, t.Samples)
}

// tailAt returns the highest ladder percentile not above want that has at
// least minBeyond samples beyond it. The lowest rung is p50, so with fewer
// than 2×minBeyond samples no percentile qualifies and the maximum is
// reported instead.
func tailAt(xs []float64, want float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if v, beyond := nearestRank(s, p); beyond >= minBeyond {
			return tail{Value: v, Pct: p, Samples: len(s)}
		}
	}
	return tail{Value: s[len(s)-1], Samples: len(s), Max: true}
}
