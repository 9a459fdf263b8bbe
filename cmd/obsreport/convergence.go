package main

// The convergence subcommand renders the per-iteration solver event log
// written by -events-out (a CRC-framed persist journal; see obs.WriteEvents
// for the record shape). For each probe it tabulates the field evolution
// (first/last/min/max plus a trend sparkline), flags stagnation plateaus —
// runs of consecutive events whose relative change stays under a tolerance
// — and attributes wall time to solver phases from the event timestamps.
//
//	obsreport convergence run.events.jsonl
//	obsreport convergence -probe linalg.cheb -plateau-tol 0.5 run.events.jsonl

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"graphio/internal/persist"
)

// probeEvent mirrors one -events-out journal record (obs.WriteEvents).
type probeEvent struct {
	Probe string             `json:"probe"`
	Iter  int64              `json:"iter"`
	TNS   int64              `json:"t_ns"`
	F     map[string]float64 `json:"f"`
}

func convergenceMain(args []string) int {
	fs := flag.NewFlagSet("convergence", flag.ExitOnError)
	probe := fs.String("probe", "", "restrict the report to one probe name")
	tol := fs.Float64("plateau-tol", 1.0, "relative change (percent) under which consecutive events count as stagnant")
	run := fs.Int("plateau-run", 5, "consecutive stagnant events needed to flag a plateau")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport convergence [-probe NAME] [-plateau-tol PCT] [-plateau-run N] EVENTS.jsonl")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := runConvergence(os.Stdout, fs.Arg(0), *probe, *tol, *run); err != nil {
		fmt.Fprintf(os.Stderr, "obsreport convergence: %v\n", err)
		return 1
	}
	return 0
}

// runConvergence loads the event journal and writes the report. Split from
// convergenceMain so tests drive it against golden output directly.
func runConvergence(w io.Writer, path, only string, tolPct float64, plateauRun int) error {
	records, err := persist.ReadJournal(path)
	if err != nil {
		return err
	}
	byProbe := map[string][]probeEvent{}
	total := 0
	minT, maxT := int64(math.MaxInt64), int64(math.MinInt64)
	for _, raw := range records {
		var ev probeEvent
		if err := json.Unmarshal(raw, &ev); err != nil || ev.Probe == "" {
			continue // torn-adjacent or foreign record: skip, don't fail the report
		}
		if only != "" && ev.Probe != only {
			continue
		}
		byProbe[ev.Probe] = append(byProbe[ev.Probe], ev)
		total++
		if ev.TNS < minT {
			minT = ev.TNS
		}
		if ev.TNS > maxT {
			maxT = ev.TNS
		}
	}
	if total == 0 {
		if only != "" {
			return fmt.Errorf("%s: no events from probe %q", path, only)
		}
		return fmt.Errorf("%s: no probe events", path)
	}
	runSpan := maxT - minT
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d events, %d probe(s), span %s\n", path, total, len(byProbe), fmtDur(runSpan))
	for _, name := range sortedKeys(byProbe) {
		evs := byProbe[name]
		first, last := evs[0], evs[len(evs)-1]
		span := last.TNS - first.TNS
		pct := 0.0
		if runSpan > 0 {
			pct = float64(span) / float64(runSpan) * 100
		}
		fmt.Fprintf(&b, "\nprobe %s: %d events, iters %d..%d, span %s (%.1f%% of run wall time)\n",
			name, len(evs), first.Iter, last.Iter, fmtDur(span), pct)
		fieldSet := map[string]bool{}
		for _, e := range evs {
			for k := range e.F {
				fieldSet[k] = true
			}
		}
		fields := sortedKeys(fieldSet)
		if len(fields) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-14s %12s %12s %12s %12s  %s\n", "field", "first", "last", "min", "max", "trend")
		type plateau struct {
			field    string
			length   int
			fromIter int64
		}
		var plateaus []plateau
		for _, f := range fields {
			iters, vals := fieldSeries(evs, f)
			if len(vals) == 0 {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			fmt.Fprintf(&b, "  %-14s %12.5g %12.5g %12.5g %12.5g  %s\n",
				f, vals[0], vals[len(vals)-1], lo, hi, sparkline(vals, 24))
			if n, at := longestPlateau(vals, tolPct/100); n >= plateauRun {
				plateaus = append(plateaus, plateau{f, n, iters[at]})
			}
		}
		for _, p := range plateaus {
			fmt.Fprintf(&b, "  plateau: %s changed <%.3g%% over %d consecutive events (from iter %d) — possible stagnation\n",
				p.field, tolPct, p.length, p.fromIter)
		}
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// fieldSeries extracts field f's values (and their iteration numbers) in
// event order, skipping events without the field and non-finite values.
func fieldSeries(evs []probeEvent, f string) (iters []int64, vals []float64) {
	for _, e := range evs {
		v, ok := e.F[f]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		iters = append(iters, e.Iter)
		vals = append(vals, v)
	}
	return iters, vals
}

// longestPlateau finds the longest run of consecutive values whose
// step-to-step relative change stays within tol. Returns the run length in
// events and its start index; (1, 0) means no two consecutive values were
// stagnant.
func longestPlateau(vals []float64, tol float64) (length, start int) {
	best, bestAt := 1, 0
	cur, curAt := 1, 0
	for i := 1; i < len(vals); i++ {
		scale := math.Max(math.Abs(vals[i-1]), math.Abs(vals[i]))
		if math.Abs(vals[i]-vals[i-1]) <= tol*scale {
			cur++
		} else {
			cur, curAt = 1, i
		}
		if cur > best {
			best, bestAt = cur, curAt
		}
	}
	return best, bestAt
}

// sparkline renders vals as a fixed-width block-character trend, sampled
// evenly when the series is longer than width.
func sparkline(vals []float64, width int) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	n := len(vals)
	if n > width {
		sampled := make([]float64, width)
		for i := range sampled {
			sampled[i] = vals[i*(n-1)/(width-1)]
		}
		vals, n = sampled, width
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	out := make([]rune, n)
	span := hi - lo
	for i, v := range vals {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(levels)-1))
		}
		out[i] = levels[idx]
	}
	return string(out)
}
