package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histograms record value *distributions*; a timer is the same structure
// exported as count/total/min/max only (TimerStat). They exist for the hot
// paths whose per-event cost varies by orders of magnitude across one run
// — per-k bound evaluations, eigensolver mat-vecs, min-cut flow rounds,
// pebble simulations — where a mean hides the tail that actually
// determines wall time.
//
// The layout is 65 power-of-two buckets over int64 values (nanoseconds for
// durations, raw counts for rates): bucket 0 holds v ≤ 0 and bucket i
// (1 ≤ i ≤ 64) holds 2^(i-1) ≤ v < 2^i. Every write is a handful of atomic
// adds — no lock, no allocation — so concurrent writers (the Chebyshev
// filter pool, the min-cut workers) never serialize on telemetry.
const histBuckets = 65

type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // seeded to MaxInt64 at creation
	max     atomic.Int64 // seeded to MinInt64 at creation
	buckets [histBuckets]atomic.Int64
}

func newHist() *hist {
	h := &hist{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// histBucket maps a value to its bucket index: 0 for v ≤ 0, otherwise the
// bit length of v, so bucket i covers [2^(i-1), 2^i).
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// observe folds v in. count is bumped last, so a reader that loads count
// first sees min, max and sum already covering every counted observation.
func (h *hist) observe(v int64) {
	h.sum.Add(v)
	h.buckets[histBucket(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.count.Add(1)
}

// HistStat is the exported state of one histogram. Quantiles are estimated
// by linear interpolation inside the owning log bucket and clamped to the
// observed [min, max], so a histogram fed a single repeated value reports
// that exact value at every quantile.
type HistStat struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Buckets is the cumulative bucket table in Prometheus histogram
	// convention: each entry counts observations ≤ LE, and only upper
	// bounds whose underlying bucket is non-empty appear. Omitted from
	// JSON when the histogram is empty, so older dumps stay comparable.
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one cumulative bucket: Count observations had value ≤ LE.
type HistBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// stat snapshots the histogram. Concurrent writers may land between the
// field loads; the skew is at most the handful of in-flight observations.
func (h *hist) stat() HistStat {
	s := HistStat{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	var b [histBuckets]int64
	total := int64(0)
	for i := range b {
		b[i] = h.buckets[i].Load()
		total += b[i]
	}
	cum := int64(0)
	for i, c := range b {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := bucketBounds(i)
		if i == 0 {
			hi = 0 // bucket 0 holds v ≤ 0
		}
		s.Buckets = append(s.Buckets, HistBucket{LE: hi, Count: cum})
	}
	s.P50 = histQuantile(b[:], total, s.Min, s.Max, 0.50)
	s.P90 = histQuantile(b[:], total, s.Min, s.Max, 0.90)
	s.P99 = histQuantile(b[:], total, s.Min, s.Max, 0.99)
	return s
}

// histQuantile estimates quantile q from bucket counts, interpolating
// linearly within the bucket that holds the target rank and clamping to
// the observed extremes.
func histQuantile(buckets []int64, total, min, max int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo, hi := bucketBounds(i)
			v := lo + (rank-cum)/fc*(hi-lo)
			if v < float64(min) {
				v = float64(min)
			}
			if v > float64(max) {
				v = float64(max)
			}
			return v
		}
		cum += fc
	}
	return float64(max)
}

// ObserveHist folds value v into histogram name.
func (r *Registry) ObserveHist(name string, v int64) {
	lookup(r, &r.hists, name, newHist).observe(v)
}

// Hist returns the current statistics of histogram name (zero value if the
// histogram was never observed).
func (r *Registry) Hist(name string) HistStat {
	if h := find(r, &r.hists, name); h != nil {
		return h.stat()
	}
	return HistStat{}
}
