package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistBucketMapping(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds must tile [1, 2^63) without gaps.
	for i := 1; i < 64; i++ {
		lo, hi := bucketBounds(i)
		if lo != math.Ldexp(1, i-1) || hi != math.Ldexp(1, i) {
			t.Errorf("bucketBounds(%d) = (%g, %g)", i, lo, hi)
		}
	}
}

// A histogram fed one repeated value must report that exact value at every
// quantile — the min/max clamp, not bucket interpolation, decides.
func TestHistSingleValueQuantiles(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		r.ObserveHist("h", 8) // 8 sits exactly on a bucket boundary
	}
	h := r.Hist("h")
	if h.Count != 50 || h.Min != 8 || h.Max != 8 {
		t.Fatalf("stat = %+v", h)
	}
	for _, q := range []float64{h.P50, h.P90, h.P99} {
		if q != 8 {
			t.Errorf("quantile = %g, want exactly 8", q)
		}
	}
	if h.Mean != 8 {
		t.Errorf("mean = %g, want 8", h.Mean)
	}
}

func TestHistQuantilesAtBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 2, 4, 8} { // each exactly a bucket lower bound
		r.ObserveHist("h", v)
	}
	h := r.Hist("h")
	if h.Count != 4 || h.Sum != 15 || h.Min != 1 || h.Max != 8 {
		t.Fatalf("stat = %+v", h)
	}
	// p50's rank lands at the top of the [2,4) bucket: the estimate must
	// stay inside the data's true middle range.
	if h.P50 < 2 || h.P50 > 4 {
		t.Errorf("p50 = %g, want within [2, 4]", h.P50)
	}
	// p99's rank lands in the [8,16) bucket; the max clamp must pin it to
	// the largest observed value rather than the bucket's upper bound.
	if h.P99 != 8 {
		t.Errorf("p99 = %g, want 8 (clamped to max)", h.P99)
	}
	if h.P90 > 8 || h.P90 < 4 {
		t.Errorf("p90 = %g, want within [4, 8]", h.P90)
	}
}

func TestHistNonPositiveValues(t *testing.T) {
	r := NewRegistry()
	r.ObserveHist("h", 0)
	r.ObserveHist("h", -5)
	h := r.Hist("h")
	if h.Count != 2 || h.Min != -5 || h.Max != 0 {
		t.Fatalf("stat = %+v", h)
	}
	if h.P50 < -5 || h.P50 > 0 {
		t.Errorf("p50 = %g, want within [min, max]", h.P50)
	}
	if h.Mean != -2.5 {
		t.Errorf("mean = %g, want -2.5", h.Mean)
	}
}

// TestHistConcurrent hammers one histogram from many goroutines; the real
// assertion is the -race run, the totals are a bonus.
func TestHistConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.ObserveHist("shared", int64(i%1000)+1)
			}
		}(w)
	}
	wg.Wait()
	h := r.Hist("shared")
	if h.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count, workers*perWorker)
	}
	if h.Min != 1 || h.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 1/1000", h.Min, h.Max)
	}
}

func TestHistSnapshotOmitsNeverObserved(t *testing.T) {
	r := NewRegistry()
	lookup(r, &r.hists, "ghost", newHist) // touched but never observed
	r.ObserveHist("real", 7)
	s := r.Snapshot()
	if _, ok := s.Hists["ghost"]; ok {
		t.Error("never-observed histogram leaked into the snapshot")
	}
	if s.Hists["real"].Count != 1 {
		t.Errorf("hists = %+v", s.Hists)
	}
}

func TestHistPackageHelpersGated(t *testing.T) {
	Reset()
	Enable(false)
	unscoped.ObserveHist("never", 1)
	unscoped.ObserveHist("never", time.Second.Nanoseconds())
	unscoped.TimeHist("never")()
	if s := Default().Snapshot(); len(s.Hists) != 0 {
		t.Errorf("disabled helpers recorded hists: %+v", s.Hists)
	}
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	unscoped.ObserveHist("on", 3)
	unscoped.ObserveHist("on_ns", (2 * time.Microsecond).Nanoseconds())
	stop := unscoped.TimeHist("timed_ns")
	stop()
	s := Default().Snapshot()
	if s.Hists["on"].Count != 1 || s.Hists["on"].Max != 3 {
		t.Errorf("hist on = %+v", s.Hists["on"])
	}
	if s.Hists["on_ns"].Max != 2000 {
		t.Errorf("hist on_ns = %+v", s.Hists["on_ns"])
	}
	if s.Hists["timed_ns"].Count != 1 {
		t.Errorf("hist timed_ns = %+v", s.Hists["timed_ns"])
	}
}
