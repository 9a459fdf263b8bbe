package obs_test

// Flush-path durability. The signal/exit flush (-metrics-out, -trace-out,
// heap profiles) goes through persist's atomic writer, so an interrupt or
// I/O fault during the dump can corrupt at most an invisible temp file —
// never a previously committed artifact. External test package: the
// faultinject filesystem imports obs for its own metrics, so these tests
// cannot live inside package obs.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphio/internal/faultinject"
	"graphio/internal/obs"
	"graphio/internal/persist"
)

// withFaultyFS routes every persist-opened file through a fresh
// faultinject wrapper for the duration of the test.
func withFaultyFS(t *testing.T, mk func(persist.File) persist.File) {
	t.Helper()
	persist.WrapFile = mk
	t.Cleanup(func() { persist.WrapFile = nil })
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp debris %s left behind by failed flush", e.Name())
		}
	}
}

func TestDumpJSONFaultPreservesPriorDump(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	obs.Reset()
	obs.IncCtx(context.Background(), "flushfault.counter")

	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := obs.DumpJSON(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The next flush dies on fsync, like a disk-full SIGINT flush.
	withFaultyFS(t, func(f persist.File) persist.File {
		return &faultinject.File{F: f, FailOnSync: 1}
	})
	obs.IncCtx(context.Background(), "flushfault.counter")
	if err := obs.DumpJSON(path); err == nil {
		t.Fatal("DumpJSON succeeded through a failing fsync")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Error("failed flush replaced the previously committed metrics dump")
	}
	assertNoTemps(t, dir)
}

func TestDumpTraceTornWriteNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	// Torn write: only a prefix of the trace reaches the temp file before
	// the fault hits. The destination must never appear.
	withFaultyFS(t, func(f persist.File) persist.File {
		return &faultinject.File{F: f, FailWriteAfter: 4}
	})
	if err := obs.DumpTrace(path); err == nil {
		t.Fatal("DumpTrace succeeded through a torn write")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("torn trace dump was published")
	}
	assertNoTemps(t, dir)
}
