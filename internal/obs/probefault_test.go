package obs_test

// Fault coverage for the probe event journal: a torn dump never
// publishes (atomic commit), and a torn tail that does reach disk — a
// crash racing a direct journal write — is tolerated by the read side.

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

func seedEvents(t *testing.T, n int) {
	t.Helper()
	obs.ResetEvents()
	obs.StartEvents()
	for i := 0; i < n; i++ {
		obs.Probe("linalg.lanczos").IterCtx(context.Background(), int64(i), obs.FI("locked", int64(i)))
	}
	obs.StopEvents()
	t.Cleanup(obs.ResetEvents)
}

func TestDumpEventsTornWriteNeverPublishes(t *testing.T) {
	seedEvents(t, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	withFaultyFS(t, func(f persist.File) persist.File {
		return &faultinject.File{F: f, FailWriteAfter: 40}
	})
	if err := obs.DumpEvents(path); err == nil {
		t.Fatal("DumpEvents succeeded through a torn write")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("torn event dump was published")
	}
	assertNoTemps(t, dir)
}

// TestEventJournalTornTailToleratedOnRead cuts an event file mid-record
// with an injected write fault and checks the reader still replays every
// record before the tear — the torn-tail contract the convergence report
// relies on when inspecting a crashed run's events.
func TestEventJournalTornTailToleratedOnRead(t *testing.T) {
	seedEvents(t, 5)
	var full strings.Builder
	if err := obs.WriteEvents(&full); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(full.String(), "\n")
	if lines != 5 {
		t.Fatalf("seeded %d framed lines, want 5", lines)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	//lint:ignore persist-writes the test needs a raw file so faultinject can tear the final frame
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fault cuts the stream 10 bytes short: the final frame is torn.
	torn := &faultinject.File{F: f, FailWriteAfter: int64(full.Len() - 10)}
	if err := obs.WriteEvents(torn); err == nil {
		t.Fatal("WriteEvents succeeded through a torn write")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := persist.ReadJournal(path)
	if err != nil {
		t.Fatalf("reader rejected torn event journal: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records past the tear, want 4", len(recs))
	}
	for i, r := range recs {
		if !strings.Contains(string(r), `"probe":"linalg.lanczos"`) {
			t.Errorf("record %d unexpected payload: %s", i, r)
		}
	}
}
