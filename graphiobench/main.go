// Command graphio-bench runs one named workload against graphio's public
// entry points, checks every answer it gets, and prints the workload's
// metrics by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md for
// the workloads, the metrics and how to run them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"graphio/internal/obs"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Work is a scratch directory inside the current directory that the
	// workload may fill (graphiod data dirs, sweep output); it is removed
	// when the run ends.
	Work string
}

// minPasses is the fewest timed passes a closed-loop workload (query-*,
// sweep) makes, even when that runs past --seconds: query-sparse and sweep
// passes take 10–15 s, so on a slow spell of the host only one would fit in
// the benchmark's run length and the reported median would be one sample.
const minPasses = 2

// workload names one runnable workload.
type workload struct {
	Name string
	Run  func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"query-dense", func(ctx context.Context, cfg runConfig) (*result, error) { return runQuery(ctx, cfg, denseMix) }},
	{"query-sparse", func(ctx context.Context, cfg runConfig) (*result, error) { return runQuery(ctx, cfg, sparseMix) }},
	{"serve", runServe},
	{"sweep", runSweep},
}

func main() {
	name := flag.String("workload", "", "workload to run: query-dense, query-sparse, serve or sweep")
	seed := flag.Int64("seed", 1, "workload seed: drives random graphs, arrivals, the request mix and uploads")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	captureRef := flag.String("capture-ref", "", "write the query reference table for seeds 1..64 to this path and exit")
	flag.Parse()

	if *captureRef != "" {
		if err := captureQueryRef(*captureRef); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}

	work, err := os.MkdirTemp(".bench_build", "run-*")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(".bench_build", 0o755); err == nil {
			work, err = os.MkdirTemp(".bench_build", "run-*")
		}
	}
	if err != nil {
		fatal(fmt.Errorf("scratch dir: %w", err))
	}
	work, err = filepath.Abs(work)
	if err != nil {
		fatal(err)
	}
	res, runErr := w.Run(context.Background(), runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: work})
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "graphio-bench: removing %s: %v\n", work, err)
	}
	if runErr != nil {
		fatal(runErr)
	}
	if res.Invalid != "" {
		fatal(fmt.Errorf("invalid run, not reported: %s", res.Invalid))
	}
	if err := res.print(*trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphio-bench: %v\n", err)
	os.Exit(1)
}

// result is one run's outcome: the answer-check tally and the metrics.
type result struct {
	Attempted int
	Failed    int
	// Invalid, when non-empty, says why the run must not be reported (an
	// open loop whose generator fell behind or whose backlog grew).
	Invalid string
	values  map[string]float64
	notes   map[string]string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric; note, when non-empty, is printed beside it (the
// percentile a tail was taken at, or how a value was computed).
func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail counts one failed answer check and says which.
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "graphio-bench: check failed: "+format+"\n", args...)
}

// rssMB returns the process's peak resident set size in MiB.
func rssMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// print writes the human-readable metric table and then the JSON result
// line. Untraced runs report the end-to-end schema, traced runs the
// per-layer schema; a per-layer metric of a layer the workload never calls
// reads 0.
func (r *result) print(traced bool) error {
	schema := endToEnd
	if traced {
		schema = perLayer
	}
	out := map[string]jsonMetric{}
	for _, m := range schema {
		v, ok := r.values[m.Name]
		if !ok && !traced {
			return fmt.Errorf("internal: end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		r.printLine(m.Name, v, m.Unit)
		out[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range r.values {
		if lookup(schema, name) == nil {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		unit, ok := unitOf(name)
		if !ok {
			return fmt.Errorf("internal: metric %s has no unit", name)
		}
		r.printLine(name, r.values[name], unit)
	}
	fmt.Printf("attempted %d, failed %d, failed_frac %.6f\n", r.Attempted, r.Failed, float64(r.Failed)/math.Max(1, float64(r.Attempted)))
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *result) printLine(name string, v float64, unit string) {
	line := fmt.Sprintf("%-40s %16.6f %s", name, v, unit)
	if n := r.notes[name]; n != "" {
		line += "  (" + n + ")"
	}
	fmt.Println(line)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// since is the wall time from t, in seconds.
func since(t time.Time) float64 { return obs.Since(t).Seconds() }
