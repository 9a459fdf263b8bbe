package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuf is a goroutine-safe bytes.Buffer for verbose-sink tests.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSpanNilWhenFullyDisabled(t *testing.T) {
	Reset()
	Enable(false)
	SetVerbose(nil)
	sp := startSpan("noop")
	if sp != nil {
		t.Fatal("startSpan should return nil when obs is fully off")
	}
	// Every method must be safe on the nil span.
	sp.SetInt("k", 1)
	sp.SetFloat("f", 1)
	sp.SetStr("s", "x")
	sp.Child("child").End()
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v", d)
	}
}

func TestSpanRecordsTimerAndFields(t *testing.T) {
	Reset()
	Enable(true)
	var buf lockedBuf
	SetVerbose(&buf)
	defer func() {
		SetVerbose(nil)
		Enable(false)
		Reset()
	}()

	sp := startSpan("lanczos")
	sp.SetInt("restarts", 7)
	sp.SetFloat("residual", 1e-9)
	inner := sp.Child("tridiag")
	time.Sleep(time.Millisecond)
	inner.End()
	sp.End()

	s := Default().Snapshot()
	if s.Timers["span.lanczos"].Count != 1 {
		t.Errorf("span.lanczos timer missing: %+v", s.Timers)
	}
	st := s.Timers["span.lanczos/tridiag"]
	if st.Count != 1 || st.TotalNS < int64(time.Millisecond) {
		t.Errorf("nested span timer = %+v", st)
	}
	out := buf.String()
	for _, want := range []string{"lanczos", "restarts=7", "residual=1e-09", "lanczos/tridiag"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose log missing %q:\n%s", want, out)
		}
	}
}

func TestVerboseOnlySpanLogsWithoutRegistry(t *testing.T) {
	Reset()
	Enable(false)
	var buf lockedBuf
	SetVerbose(&buf)
	defer SetVerbose(nil)

	sp := startSpan("phase")
	if sp == nil {
		t.Fatal("verbose sink alone should activate spans")
	}
	sp.End()
	logf("event %d", 42)
	out := buf.String()
	if !strings.Contains(out, "phase") || !strings.Contains(out, "event 42") {
		t.Errorf("verbose output missing lines:\n%s", out)
	}
	if s := Default().Snapshot(); len(s.Timers) != 0 {
		t.Errorf("registry should stay empty when disabled, got %+v", s.Timers)
	}
}

func TestLogfDisabledIsSilent(t *testing.T) {
	SetVerbose(nil)
	logf("should go nowhere %d", 1) // must not panic or block
}

func TestCLIBeginFinishWritesMetrics(t *testing.T) {
	Reset()
	defer func() {
		Enable(false)
		SetVerbose(nil)
		Reset()
	}()
	dir := t.TempDir()
	c := &CLI{MetricsOut: dir + "/m.json"}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("-metrics-out should enable collection")
	}
	unscoped.Inc("some.counter")
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	b, err := readFile(c.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"some.counter", "wall_seconds", `"wall"`} {
		if !strings.Contains(b, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, b)
		}
	}
}
