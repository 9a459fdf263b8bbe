package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// parentManifestDir copies testdata/parent_manifest — a sweep directory
// written before the manifest moved onto persist.Log — into a scratch dir.
// Its journal holds a fresh sweep (alpha and beta ok, gamma failed), a
// resumed sweep (alpha and beta skipped, gamma failed again) and a merge
// (delta ok from worker w1, gamma poisoned after 2 attempts).
func parentManifestDir(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "parent_manifest")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore persist-writes copying a read-only fixture into a scratch out dir
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

var parentManifestWalls = map[string]time.Duration{
	"alpha": 12 * time.Millisecond,
	"beta":  25 * time.Millisecond,
	"gamma": 8 * time.Millisecond,
	"delta": 31 * time.Millisecond,
}

func TestReplayParentManifest(t *testing.T) {
	dir := parentManifestDir(t)
	cfg := Config{MaxK: 7}
	m, err := openManifest(context.Background(), dir, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		status   string
		skipped  bool
		worker   string
		attempts int
	}
	want := map[string]row{
		"alpha": {statusOK, true, "", 0},
		"beta":  {statusOK, true, "", 0},
		"gamma": {statusPoisoned, false, "", 2},
		"delta": {statusOK, false, "w1", 0},
	}
	got := map[string]row{}
	for name, rec := range m.prior {
		got[name] = row{rec.Status, rec.Skipped, rec.Worker, rec.Attempts}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prior = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(m.walls, parentManifestWalls) {
		t.Errorf("walls = %v, want %v", m.walls, parentManifestWalls)
	}
	for _, name := range []string{"alpha", "beta", "delta"} {
		if _, _, ok := m.reusable(dir, name); !ok {
			t.Errorf("%s does not verify against the replayed manifest", name)
		}
	}
	if _, _, ok := m.reusable(dir, "gamma"); ok {
		t.Error("poisoned gamma counted as reusable")
	}
	m.close()

	// Resuming the whole sweep re-runs only the poisoned experiment.
	runners, runs := countingRunners("alpha", "beta", "gamma", "delta")
	var log bytes.Buffer
	cfg.Resume = true
	if _, err := runRunners(context.Background(), cfg, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, map[string]int{"gamma": 1}) {
		t.Errorf("resume ran %v, want only gamma", runs)
	}
}

// A fresh sweep over the same directory keeps the wall-time history but
// none of the prior records.
func TestFreshSweepKeepsParentManifestWalls(t *testing.T) {
	dir := parentManifestDir(t)
	m, err := openManifest(context.Background(), dir, Config{MaxK: 7}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	if len(m.prior) != 0 {
		t.Errorf("fresh sweep kept prior records %v", m.prior)
	}
	if !reflect.DeepEqual(m.walls, parentManifestWalls) {
		t.Errorf("walls = %v, want %v", m.walls, parentManifestWalls)
	}
}
