package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphio/internal/persist"
)

func TestCLIFinishIdempotent(t *testing.T) {
	Reset()
	defer func() {
		Enable(false)
		Reset()
	}()
	dir := t.TempDir()
	c := &CLI{MetricsOut: filepath.Join(dir, "m.json")}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	unscoped.Inc("idem.counter")
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	// A second Finish (the interrupt handler and the normal path can both
	// reach it) must be a no-op, not a double flush or a panic.
	if err := c.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
	b, err := readFile(c.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b, "idem.counter") {
		t.Errorf("metrics dump missing counter:\n%s", b)
	}
}

func TestCLITraceOutWritesPerfettoFile(t *testing.T) {
	Reset()
	ResetTrace()
	defer func() {
		Enable(false)
		StopTrace()
		ResetTrace()
		Reset()
	}()
	dir := t.TempDir()
	c := &CLI{TraceOut: filepath.Join(dir, "run.trace.json")}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !TraceEnabled() {
		t.Fatal("-trace-out should enable the trace collector")
	}
	sp := startSpan("cli.phase")
	sp.Child("inner").End()
	sp.End()
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if TraceEnabled() {
		t.Error("Finish should stop the trace collector")
	}
	raw, err := os.ReadFile(c.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	if !names["cli.phase"] || !names["cli.phase/inner"] {
		t.Errorf("trace missing spans: %v", names)
	}
}

func TestCLIEventsOutWritesJournal(t *testing.T) {
	Reset()
	ResetEvents()
	defer func() {
		Enable(false)
		StopEvents()
		ResetEvents()
		Reset()
	}()
	dir := t.TempDir()
	c := &CLI{EventsOut: filepath.Join(dir, "events.jsonl")}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !EventsEnabled() {
		t.Fatal("-events-out should enable the event collector")
	}
	Probe("cli.phase").IterCtx(context.Background(), 0, F("resid", 1.5), FI("restart", 1))
	Probe("cli.phase").IterCtx(context.Background(), 1, F("resid", 0.5), FI("restart", 2))
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if EventsEnabled() {
		t.Error("Finish should stop the event collector")
	}
	recs, err := persist.ReadJournal(c.EventsOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d event records, want 2", len(recs))
	}
	if !strings.Contains(string(recs[1]), `"iter":1`) {
		t.Errorf("second record = %s", recs[1])
	}
}

func TestCLITimeoutDeadlinesContext(t *testing.T) {
	c := &CLI{Timeout: 20 * time.Millisecond}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	defer c.Finish()
	if _, ok := c.Context().Deadline(); !ok {
		t.Fatal("-timeout did not put a deadline on the pipeline context")
	}
	select {
	case <-c.Context().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired")
	}
	if c.Interrupted() {
		t.Error("a wall-clock timeout must not report as a signal interrupt")
	}
}

func TestCLITimeoutFlagYieldsToExistingFlag(t *testing.T) {
	// specio mincut predates the global budget with its own -timeout (the
	// per-sweep cutoff); AddFlags must not collide with it.
	fs := flag.NewFlagSet("sub", flag.ContinueOnError)
	var local time.Duration
	fs.DurationVar(&local, "timeout", 0, "subcommand-scoped cutoff")
	c := AddFlags(fs)
	if err := fs.Parse([]string{"-timeout", "7s"}); err != nil {
		t.Fatal(err)
	}
	if local != 7*time.Second {
		t.Errorf("pre-existing flag got %v, want 7s", local)
	}
	if c.Timeout != 0 {
		t.Errorf("CLI.Timeout = %v, want 0 (name owned by the subcommand)", c.Timeout)
	}

	fs2 := flag.NewFlagSet("plain", flag.ContinueOnError)
	c2 := AddFlags(fs2)
	if err := fs2.Parse([]string{"-timeout", "7s"}); err != nil {
		t.Fatal(err)
	}
	if c2.Timeout != 7*time.Second {
		t.Errorf("CLI.Timeout = %v, want 7s", c2.Timeout)
	}
}

// TestCLIInterruptFlushesTelemetry re-runs the test binary as a child that
// starts a CLI-managed "sweep", then interrupts it and checks the metrics
// and trace dumps were still written — the exact Ctrl-C-loses-everything
// failure the interrupt handler exists to fix.
func TestCLIInterruptFlushesTelemetry(t *testing.T) {
	if os.Getenv("OBS_CLI_INTERRUPT_CHILD") == "1" {
		cliInterruptChild()
		return
	}
	dir := t.TempDir()
	mout := filepath.Join(dir, "m.json")
	tout := filepath.Join(dir, "t.json")
	eout := filepath.Join(dir, "events.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run", "TestCLIInterruptFlushesTelemetry$")
	cmd.Env = append(os.Environ(),
		"OBS_CLI_INTERRUPT_CHILD=1", "OBS_CLI_MOUT="+mout, "OBS_CLI_TOUT="+tout, "OBS_CLI_EOUT="+eout)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the child to report it is mid-"sweep" before interrupting.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "CHILD_READY") {
				ready <- nil
				return
			}
		}
		ready <- errors.New("child exited before READY")
	}()
	select {
	case err := <-ready:
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("timed out waiting for child")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child exit = %v, want non-zero status", err)
	}
	if code := exit.ExitCode(); code != 130 {
		t.Errorf("child exit code = %d, want 130", code)
	}
	metrics, err := readFile(mout)
	if err != nil {
		t.Fatalf("metrics not flushed on interrupt: %v", err)
	}
	if !strings.Contains(metrics, "child.sweep.counter") {
		t.Errorf("flushed metrics missing counter:\n%s", metrics)
	}
	trace, err := readFile(tout)
	if err != nil {
		t.Fatalf("trace not flushed on interrupt: %v", err)
	}
	if !strings.Contains(trace, "child.sweep") {
		t.Errorf("flushed trace missing span:\n%s", trace)
	}
	// The event journal must not just exist — it must be CRC-clean: every
	// frame replayable, no torn tail from the interrupt-time flush.
	recs, err := persist.ReadJournal(eout)
	if err != nil {
		t.Fatalf("interrupt-flushed event journal not clean: %v", err)
	}
	foundProbe := false
	for _, r := range recs {
		if strings.Contains(string(r), `"probe":"child.sweep_probe"`) {
			foundProbe = true
		}
	}
	if !foundProbe {
		t.Errorf("flushed events missing probe record (%d records)", len(recs))
	}
}

// cliInterruptChild is the body run inside the re-executed test binary.
func cliInterruptChild() {
	c := &CLI{
		MetricsOut: os.Getenv("OBS_CLI_MOUT"),
		TraceOut:   os.Getenv("OBS_CLI_TOUT"),
		EventsOut:  os.Getenv("OBS_CLI_EOUT"),
	}
	if err := c.Begin(); err != nil {
		fmt.Println("CHILD_BEGIN_ERROR", err)
		os.Exit(3)
	}
	unscoped.Inc("child.sweep.counter")
	sp := startSpan("child.sweep")
	sp.End()
	Probe("child.sweep_probe").IterCtx(context.Background(), 0, F("resid", 0.25))
	fmt.Println("CHILD_READY")
	// The new contract: the signal cancels Context(), the command winds down
	// on its own, flushes through Finish, and exits 130 itself.
	select {
	case <-c.Context().Done():
	case <-time.After(30 * time.Second):
		os.Exit(0) // reached only if the signal never came
	}
	if err := c.Finish(); err != nil {
		fmt.Println("CHILD_FINISH_ERROR", err)
		os.Exit(3)
	}
	if c.Interrupted() {
		os.Exit(130)
	}
	os.Exit(0)
}
