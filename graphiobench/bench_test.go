package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"graphio/internal/core"
	"graphio/internal/graphiod"
)

func TestTailAtTakesHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tailAt must sort
		}
		return xs
	}
	cases := []struct {
		n        int
		want     float64
		wantVal  float64
		wantPct  float64
		describe string
	}{
		{1000, 99, 990, 99, "p99 of 1000 samples"},
		{1000, 99.9, 990, 99, "p99.9 has one sample beyond: falls to p99"},
		{200, 99, 190, 95, "p95 of 200 samples"},
		{20, 99, 10, 50, "p50 of 20 samples"},
		{19, 99, 19, 0, "max of 19 samples"},
		{1, 99, 1, 0, "max of 1 sample"},
	}
	for _, c := range cases {
		got := tailAt(seq(c.n), c.want)
		if got.Value != c.wantVal || got.Pct != c.wantPct || got.Samples != c.n || got.Max != (c.wantPct == 0) {
			t.Errorf("%s: got %+v, want value %v at p%v", c.describe, got, c.wantVal, c.wantPct)
		}
		if got.Pct > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("%s: only %d samples beyond p%v", c.describe, beyond, got.Pct)
			}
		}
	}
	if got := tailAt(nil, 99); got != (tail{}) {
		t.Errorf("empty input: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	const d = 30 * time.Second
	a, err := makeSchedule(7, serveRate, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSchedule(7, serveRate, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c, err := makeSchedule(8, serveRate, d)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}

	kinds := map[string]int{}
	pairs := map[string]bool{}
	var last time.Duration
	for _, x := range a {
		if x.At < last || x.At >= d {
			t.Fatalf("arrival at %v out of order or past %v", x.At, d)
		}
		last = x.At
		kinds[x.Kind]++
		if x.Kind == kindSpec {
			key := fmt.Sprintf("%s/%d/%d", x.Spec, x.M, x.MaxK)
			if pairs[key] || x.MaxK == serveMaxK || x.MaxK < minMaxK || x.MaxK >= directMaxK {
				t.Fatalf("new-bound request %s repeats a key or leaves the max_k range", key)
			}
			pairs[key] = true
		}
	}
	n := float64(len(a))
	if want := serveRate * d.Seconds(); n != want {
		t.Errorf("%v arrivals, want rate × duration = %v", n, want)
	}
	for kind, want := range map[string]float64{kindHit: 0.5, kindSpec: 0.4, kindUpload: 0.1} {
		if got := float64(kinds[kind]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestScheduleSizesKeysToTheRun(t *testing.T) {
	if _, err := makeSchedule(1, serveRate, 60*time.Second); err != nil {
		t.Errorf("a 60 s schedule: %v", err)
	}
	if _, err := makeSchedule(1, serveRate, 1000*time.Second); err == nil {
		t.Error("a schedule with more new keys than the pool offers was accepted")
	}
}

// TestSpecPoolCertifiesUpToMaxM checks each pool spec's MaxM: Theorem 4
// certifies a positive bound there and none at MaxM+1. The warm-up keys
// must certify one too.
func TestSpecPoolCertifiesUpToMaxM(t *testing.T) {
	thm4 := func(spec string) *core.Result {
		g, err := graphiod.BuildSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.SpectralBound(g, core.Options{M: 1, MaxK: directMaxK})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, p := range specPool {
		r := thm4(p.Spec)
		if b, _, _ := core.BoundFromEigenvalues(r.Eigenvalues, r.N, p.MaxM+1, 1, 1); b != 0 {
			t.Errorf("%s: bound %v at M=%d, past MaxM %d", p.Spec, b, p.MaxM+1, p.MaxM)
		}
		if b, _, _ := core.BoundFromEigenvalues(r.Eigenvalues[:serveMaxK], r.N, p.MaxM, 1, 1); b <= 0 {
			t.Errorf("%s: no positive bound at MaxM %d", p.Spec, p.MaxM)
		}
	}
	for _, spec := range warmSpecs {
		r := thm4(spec)
		if b, _, _ := core.BoundFromEigenvalues(r.Eigenvalues[:serveMaxK], r.N, warmM, 1, 1); b <= 0 {
			t.Errorf("warm-up %s: no positive bound at M=%d", spec, warmM)
		}
	}
}

func TestSeededGraphsAreAFunctionOfTheSeed(t *testing.T) {
	for _, mix := range [][]query{denseMix, sparseMix} {
		for _, q := range mix {
			if !q.Seeded {
				continue
			}
			a, b, c := q.Build(3).Edges(), q.Build(3).Edges(), q.Build(4).Edges()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same seed gave different graphs", q.Name)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: different seeds gave the same graph", q.Name)
			}
		}
	}
	u1, u2, u3 := genUpload(16, 5).Edges(), genUpload(16, 5).Edges(), genUpload(16, 6).Edges()
	if !reflect.DeepEqual(u1, u2) || reflect.DeepEqual(u1, u3) {
		t.Error("upload graphs are not a function of their seed")
	}
}

func TestCheckCSVIgnoresOnlyTimingColumns(t *testing.T) {
	ref := map[string][][]string{"fig.csv": {{"l", "bound", "spectral_s"}, {"6", "1.50", "0.002"}}}
	res := newResult()
	checkCSV("fig.csv", []byte("l,bound,spectral_s\n6,1.50,0.913\n"), ref, res)
	if res.Failed != 0 {
		t.Errorf("a timing column difference failed the check")
	}
	checkCSV("fig.csv", []byte("l,bound,spectral_s\n6,1.49,0.002\n"), ref, res)
	checkCSV("other.csv", []byte("l\n"), ref, res)
	if res.Failed != 2 || res.Attempted != 3 {
		t.Errorf("got %d failed of %d, want 2 of 3", res.Failed, res.Attempted)
	}
}

func TestQueryReferenceCoversEveryGraph(t *testing.T) {
	res := newResult()
	chk, err := newChecker(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range [][]query{denseMix, sparseMix} {
		for _, q := range mix {
			if _, ok := chk.ref[refKey(q, 1)]; !ok {
				t.Errorf("no reference for %s", refKey(q, 1))
			}
			if _, ok := chk.ref[refKey(q, refSeeds)]; q.Seeded && !ok {
				t.Errorf("no reference for %s", refKey(q, refSeeds))
			}
		}
	}
}

// TestSchemaMatchesBenchmarkJSON keeps the metric lists the program prints
// and the repository's BENCHMARK.json in step.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", spec.PerLayer, perLayer)
	}
}
