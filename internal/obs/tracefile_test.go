package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The golden test pins the exact bytes of the Chrome trace-event output:
// field order, separators and the fixed-point microsecond encoding are all
// part of the contract (stable diffs across runs, Perfetto compatibility).
func TestWriteTraceEventsGolden(t *testing.T) {
	events := []TraceEvent{
		{
			Name: "core.spectral_bound", TsNS: 1000, DurNS: 2500500,
			Gid: 1, ID: 1, ParentID: 0,
			Keys: []string{"n", "solver"}, Vals: []string{"4096", "chebyshev"},
		},
		{
			Name: "core.spectral_bound/eigensolve", TsNS: 2000, DurNS: 2000000,
			Gid: 1, ID: 2, ParentID: 1,
		},
	}
	var buf bytes.Buffer
	if err := writeTraceEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "chrome_trace.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output diverged from %s:\n got: %s\nwant: %s", goldenPath, buf.Bytes(), want)
	}
	// The golden bytes must themselves be a valid JSON document of the
	// shape Perfetto requires: a traceEvents array of complete events.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid", "args"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event missing %q: %v", field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("ph = %v, want X", ev["ph"])
		}
	}
}

func TestWriteTraceEmptyIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTraceEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestMicroseconds(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{2500500, "2500.500"}, {-7, "0.000"},
	}
	for _, c := range cases {
		if got := microseconds(c.ns); got != c.want {
			t.Errorf("microseconds(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// End-to-end: spans started while tracing land in the trace with parent
// links and goroutine ids, and leave the open-span table empty when done.
func TestTraceCollectsSpans(t *testing.T) {
	Reset()
	Enable(false)
	ResetTrace()
	StartTrace()
	defer func() {
		StopTrace()
		ResetTrace()
	}()

	sp := startSpan("root")
	if sp == nil {
		t.Fatal("tracing alone should activate spans")
	}
	sp.SetInt("size", 42)
	if open := OpenSpans(); len(open) != 1 || open[0].Name != "root" {
		t.Fatalf("open spans = %+v", open)
	}
	child := sp.Child("phase")
	child.End()
	sp.End()
	if open := OpenSpans(); len(open) != 0 {
		t.Fatalf("spans still open after End: %+v", open)
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int64  `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2 (child then root)", len(doc.TraceEvents))
	}
	// Events buffer in End order: child first.
	if doc.TraceEvents[0].Name != "root/phase" || doc.TraceEvents[1].Name != "root" {
		t.Errorf("event names = %s, %s", doc.TraceEvents[0].Name, doc.TraceEvents[1].Name)
	}
	childArgs, rootArgs := doc.TraceEvents[0].Args, doc.TraceEvents[1].Args
	if childArgs["parent_id"] != rootArgs["span_id"] {
		t.Errorf("child parent_id %v != root span_id %v", childArgs["parent_id"], rootArgs["span_id"])
	}
	if rootArgs["size"] != "42" {
		t.Errorf("root args missing field: %v", rootArgs)
	}
	if doc.TraceEvents[0].Tid == 0 {
		t.Error("goroutine id not recorded")
	}
	// The registry stayed off throughout: tracing must not leak metrics.
	if s := Default().Snapshot(); len(s.Timers) != 0 {
		t.Errorf("registry recorded timers while disabled: %+v", s.Timers)
	}
}

func TestGoidParses(t *testing.T) {
	if id := goid(); id <= 0 {
		t.Errorf("goid() = %d, want a positive goroutine id", id)
	}
}
