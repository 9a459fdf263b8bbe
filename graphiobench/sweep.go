package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"graphio/internal/experiments"
	"graphio/internal/obs"
	"graphio/internal/persist"
)

// sweepRef holds the quick sweep's CSVs as the code the benchmark was
// written against produced them.
//
//go:embed testdata/sweep_ref/*.csv
var sweepRef embed.FS

// runSweep times experiments.RunAll over QuickConfig into an empty
// directory: the full-spectrum figure callers, the manifest and CSV
// commits, and every baseline no other workload touches (mincut, pebble,
// redblue, hongkung, expansion, partition, hier).
func runSweep(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	ref, err := loadSweepRef()
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return res, tracedSweep(ctx, cfg, ref, res)
	}
	// Set-up is one warm-up sweep, checked like the timed ones: the first
	// RunAll in a process also pays for heap growth and first-touch page
	// faults. A quick sweep has nothing else before its first experiment
	// but RunAll's own preamble, a fraction of a millisecond of fsyncs
	// whose median moved by half between two sets of runs of one commit.
	setup, err := sweepPass(ctx, filepath.Join(cfg.Work, "warm-up"), ref, res)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "one warm-up quick sweep")

	var walls []float64
	start := obs.Now()
	for pass := 0; ; pass++ {
		w, err := sweepPass(ctx, filepath.Join(cfg.Work, fmt.Sprintf("sweep-%d", pass)), ref, res)
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
		if len(walls) >= minPasses && since(start)+median(walls) > cfg.Seconds {
			break
		}
	}
	res.set("answer_ms", median(walls)*1e3, fmt.Sprintf("median of %d quick sweeps", len(walls)))
	res.set("sweep_s", median(walls), "= answer_ms")
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "")
	res.set("peak_rss_mb", rssMB(), "")
	return res, nil
}

// sweepPass runs one quick sweep into dir, checks its CSVs and removes dir.
func sweepPass(ctx context.Context, dir string, ref map[string][][]string, res *result) (float64, error) {
	t := obs.Now()
	_, err := experiments.RunAll(ctx, experiments.QuickConfig(), dir, nil, io.Discard)
	wall := since(t)
	if err != nil {
		res.fail("sweep: %v", err)
	}
	checkSweepDir(dir, ref, res)
	return wall, os.RemoveAll(dir)
}

// tracedSweep runs the sweep once through RunAll (the untraced wall time)
// and once runner by runner, timing each experiments.Runners() entry. What
// RunAll spends beyond the runners is manifest and CSV commits.
func tracedSweep(ctx context.Context, cfg runConfig, ref map[string][][]string, res *result) error {
	dir := filepath.Join(cfg.Work, "sweep")
	plain, err := sweepPass(ctx, dir, ref, res)
	if err != nil {
		return err
	}

	var sum float64
	start := obs.Now()
	for _, r := range experiments.Runners() {
		t := obs.Now()
		tab, err := r.Run(ctx, experiments.QuickConfig())
		d := since(t)
		sum += d
		res.set(runnerMetric(r.Name), d, "")
		res.Attempted++
		if err != nil {
			res.fail("%s: %v", r.Name, err)
			continue
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			res.fail("%s: rendering CSV: %v", r.Name, err)
			continue
		}
		checkCSV(r.Name+".csv", buf.Bytes(), ref, res)
	}
	traced := since(start)
	res.set("experiments.persist_s", plain-sum, fmt.Sprintf("RunAll %.3fs − Σ runners %.3fs", plain, sum))
	res.set("trace.overhead_frac", traced/sum-1, "runner-by-runner loop wall ÷ Σ timed runner calls − 1")

	p50, p99, err := appendLatency(cfg.Work)
	if err != nil {
		return err
	}
	res.set("persist.append_us.p50", p50.Value, p50.String())
	res.set("persist.append_us.p99", p99.Value, p99.String())
	return nil
}

// appendSamples is how many journal appends the persist probe times.
const appendSamples = 200

// appendLatency opens a persist journal in dir and times appendSamples
// appends (each fsyncs), returning the median and tail in microseconds.
func appendLatency(dir string) (tail, tail, error) {
	path := filepath.Join(dir, "append-probe.wal")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		return tail{}, tail{}, err
	}
	rec := []byte(`{"op":"accept","id":"j000001","key":"0000000000000000000000000000000000000000000000000000000000000000"}`)
	var us []float64
	for i := 0; i < appendSamples; i++ {
		t := obs.Now()
		if err := j.Append(rec); err != nil {
			_ = j.Close()
			return tail{}, tail{}, err
		}
		us = append(us, since(t)*1e6)
	}
	if err := j.Close(); err != nil {
		return tail{}, tail{}, err
	}
	return tail{Value: median(us), Pct: 50, Samples: len(us)}, tailAt(us, 99), os.Remove(path)
}

// loadSweepRef parses the reference CSVs, keyed by file name.
func loadSweepRef() (map[string][][]string, error) {
	ents, err := sweepRef.ReadDir("testdata/sweep_ref")
	if err != nil {
		return nil, err
	}
	ref := map[string][][]string{}
	for _, e := range ents {
		data, err := sweepRef.ReadFile("testdata/sweep_ref/" + e.Name())
		if err != nil {
			return nil, err
		}
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", e.Name(), err)
		}
		ref[e.Name()] = rows
	}
	return ref, nil
}

// checkSweepDir checks that dir holds exactly the reference CSVs with the
// reference contents.
func checkSweepDir(dir string, ref map[string][][]string, res *result) {
	got, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
	names := map[string]bool{}
	for _, p := range got {
		names[filepath.Base(p)] = true
	}
	var want []string
	for name := range ref {
		want = append(want, name)
	}
	sort.Strings(want)
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			res.Attempted++
			res.fail("sweep: %v", err)
			continue
		}
		checkCSV(name, data, ref, res)
		delete(names, name)
	}
	for name := range names {
		res.Attempted++
		res.fail("sweep: %s has no reference", name)
	}
}

// checkCSV compares one CSV with its reference cell by cell, at the
// precision the CSV prints, skipping timing columns (headers ending "_s").
func checkCSV(name string, data []byte, ref map[string][][]string, res *result) {
	res.Attempted++
	want, ok := ref[name]
	if !ok {
		res.fail("sweep: %s has no reference", name)
		return
	}
	got, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		res.fail("sweep: %s: %v", name, err)
		return
	}
	if len(got) != len(want) || len(got) == 0 {
		res.fail("sweep: %s has %d rows, want %d", name, len(got), len(want))
		return
	}
	header := want[0]
	for i := range want {
		if len(got[i]) != len(header) || len(want[i]) != len(header) {
			res.fail("sweep: %s row %d has %d cells, want %d", name, i, len(got[i]), len(header))
			return
		}
		for c := range header {
			if strings.HasSuffix(header[c], "_s") {
				continue
			}
			if got[i][c] != want[i][c] {
				res.fail("sweep: %s row %d %s = %q, want %q", name, i, header[c], got[i][c], want[i][c])
				return
			}
		}
	}
}
