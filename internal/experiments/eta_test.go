package experiments

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

func TestETAEmptyHistory(t *testing.T) {
	e := newETATracker([]string{"fig7", "fig8", "fig9"}, nil)
	if _, ok := e.eta(); ok {
		t.Error("ETA claimed known with no history and nothing finished")
	}
	st, ok := e.status()
	if !ok {
		t.Fatal("status not reported")
	}
	if st.Total != 3 || st.Done != 0 || st.ETAKnown {
		t.Errorf("status = %+v", st)
	}
	// The first completion creates history: remaining 2 × its wall time.
	e.begin("fig7")
	e.finish("fig7", 10*time.Second, false)
	rem, ok := e.eta()
	if !ok {
		t.Fatal("ETA unknown after a completed experiment")
	}
	if rem != 20*time.Second {
		t.Errorf("ETA = %v, want 20s (mean 10s × 2 remaining)", rem)
	}
}

func TestETAPartialHistory(t *testing.T) {
	base := time.Unix(1700000000, 0)
	obs.SetClock(func() time.Time { return base })
	defer obs.SetClock(nil)

	// fig8 has its own history; fig9 falls back to the mean of known walls.
	hist := map[string]time.Duration{"fig8": 30 * time.Second}
	e := newETATracker([]string{"fig7", "fig8", "fig9"}, hist)
	rem, ok := e.eta()
	if !ok {
		t.Fatal("ETA unknown despite partial history")
	}
	// Known walls: fig8's 30s → mean 30s. fig7 = 30s, fig8 = 30s, fig9 = 30s.
	if rem != 90*time.Second {
		t.Errorf("ETA = %v, want 90s", rem)
	}

	e.begin("fig7")
	e.finish("fig7", 6*time.Second, false)
	rem, ok = e.eta()
	if !ok {
		t.Fatal("ETA unknown")
	}
	// Known walls now 6s (run) + 30s (fig8 history) → mean 18s.
	// fig8 uses its own 30s, fig9 the 18s mean.
	if rem != 48*time.Second {
		t.Errorf("ETA = %v, want 48s", rem)
	}

	// Mid-experiment, the running experiment's estimate shrinks by its
	// elapsed time (fig8: 30s − 10s = 20s; fig9 mean stays 18s).
	e.begin("fig8")
	obs.SetClock(func() time.Time { return base.Add(10 * time.Second) })
	rem, ok = e.eta()
	if !ok {
		t.Fatal("ETA unknown")
	}
	if rem != 38*time.Second {
		t.Errorf("ETA = %v, want 38s", rem)
	}

	// An overrun experiment contributes 0, never negative.
	obs.SetClock(func() time.Time { return base.Add(5 * time.Minute) })
	rem, _ = e.eta()
	if rem != 18*time.Second {
		t.Errorf("ETA with overrun current = %v, want 18s", rem)
	}
}

func TestETASkipAndFailureCounts(t *testing.T) {
	e := newETATracker([]string{"a", "b", "c", "d"}, nil)
	e.skip("a")
	e.begin("b")
	e.finish("b", time.Second, true)
	st, _ := e.status()
	if st.Skipped != 1 || st.Done != 1 || st.Failed != 1 {
		t.Errorf("status = %+v, want skipped=1 done=1 failed=1", st)
	}
	// Double-counting guards: repeated finish/skip of the same name are
	// no-ops.
	e.finish("b", time.Second, true)
	e.skip("a")
	st, _ = e.status()
	if st.Skipped != 1 || st.Done != 1 {
		t.Errorf("status after repeats = %+v", st)
	}
	line := e.progressLine()
	if line != "2/4 done, ETA ~2s" {
		t.Errorf("progressLine = %q", line)
	}
}

// readWalls opens dir's manifest for a fresh (non-resume) sweep and returns
// the wall-time history the fold kept from the old journal.
func readWalls(t *testing.T, dir string) map[string]time.Duration {
	t.Helper()
	m, err := openManifest(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	return m.walls
}

func TestReadManifestWalls(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	if walls := readWalls(t, dir); len(walls) != 0 {
		t.Errorf("missing manifest produced history %v", walls)
	}
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"kind":"sweep","config_hash":"h"}`,
		`{"kind":"experiment","name":"fig7","status":"ok","wall_ms":1500}`,
		`{"kind":"experiment","name":"fig8","status":"failed","wall_ms":200}`,
		`{"kind":"experiment","name":"fig7","status":"ok","wall_ms":2500}`,
		`{"kind":"experiment","name":"fig9","status":"ok","skipped":true,"wall_ms":900}`,
	} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walls := readWalls(t, dir)
	if len(walls) != 2 {
		t.Fatalf("walls = %v, want fig7+fig8", walls)
	}
	if walls["fig7"] != 2500*time.Millisecond {
		t.Errorf("fig7 wall = %v, want latest record's 2.5s", walls["fig7"])
	}
	if walls["fig8"] != 200*time.Millisecond {
		t.Errorf("fig8 wall = %v (failed runs still inform the estimate)", walls["fig8"])
	}
	if _, ok := walls["fig9"]; ok {
		t.Error("skip records must not count as measured wall time")
	}
}
