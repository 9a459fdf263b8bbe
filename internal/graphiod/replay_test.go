package graphiod

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		//lint:ignore persist-writes copying a read-only fixture into a scratch data dir
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A seeded random mix of accepts (with cache hits), completions, failures,
// sheds and jobs left running, under aggressive pruning and compaction,
// must reopen to the job table the live store showed before the hard
// stop — with running jobs back in the queue.
func TestReplayMatchesLiveTable(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := openStore(dir, 12, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			s.compactEvery = 5
			rng := rand.New(rand.NewSource(seed))
			var running []*job
			for op := 0; op < 120; op++ {
				switch r := rng.Intn(20); {
				case r < 9:
					spec := jobSpec{V: 1, Spec: fmt.Sprintf("chain:%d", 2+rng.Intn(30)), M: 2, MaxK: 1, Solver: "dense"}
					if _, err := s.accept(spec, rng.Intn(3), "c", "h", time.Second, freshLimits()); err != nil {
						t.Fatal(err)
					}
				case r < 12:
					if j := s.next(); j != nil {
						running = append(running, j)
					}
				case r < 15 && len(running) > 0:
					j := running[0]
					running = running[1:]
					sha, err := s.commitArtifact(j.Key, []byte(`{"bound":"`+j.Key[:8]+`"}`))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.complete(j, sha, time.Duration(rng.Intn(50))*time.Millisecond); err != nil {
						t.Fatal(err)
					}
				case r < 18 && len(running) > 0:
					j := running[0]
					running = running[1:]
					if err := s.fail(j, KindSolver, "boom", time.Duration(rng.Intn(50))*time.Millisecond); err != nil {
						t.Fatal(err)
					}
				default:
					if _, err := s.shedLowest(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := s.list()
			for i := range want {
				if want[i].Status == StateRunning {
					want[i].Status = StateQueued
				}
			}
			wantDepth := s.depth() + len(running)
			s.close() // hard stop

			s2, err := openStore(dir, 12, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.close()
			if got := s2.list(); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed table differs from the live one:\n got %+v\nwant %+v", got, want)
			}
			if s2.depth() != wantDepth || s2.replayed != wantDepth {
				t.Fatalf("replayed queue depth %d (replayed %d), want %d", s2.depth(), s2.replayed, wantDepth)
			}
		})
	}
}

// testdata/parent_wal is a data dir (WAL plus artifact) written by the
// store before the WAL moved onto persist.Log. It holds every record kind:
// meta and result (from a compaction), accept, done (computed and cache
// hit), fail and shed, and ends with one job queued and one running.
func TestReplayParentWAL(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_wal"), dir)
	s, err := openStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	const (
		key4 = "a8ca653b8ac8b137dbfce3d75de12bea268da62bc2057a195cc82eb912cad309"
		sha4 = "1072c62b0ac66226bc44a55f524c2fee69c11547732735c187ce260eb726aea9"
	)
	type row struct {
		id, status, errKind, sha string
		cached                   bool
		wallMS                   int64
	}
	want := []row{
		{"j000000", StateDone, "", sha4, false, 7},
		{"j000001", StateDone, "", sha4, true, 0},
		{"j000002", StateFailed, KindSolver, "", false, 11},
		{"j000003", StateQueued, "", "", false, 0},
		{"j000004", StateShed, "shed", "", false, 0},
		{"j000005", StateQueued, "", "", false, 0},
	}
	got := s.list()
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		errKind := ""
		if g.Error != nil {
			errKind = g.Error.Kind
		}
		if g.ID != w.id || g.Status != w.status || errKind != w.errKind || g.ArtifactSHA != w.sha || g.Cached != w.cached || g.WallMS != w.wallMS {
			t.Errorf("job %d = %+v, want %+v", i, g, w)
		}
	}
	if got[2].Error.Message != "boom" || got[0].Client != "alice" || got[5].Priority != 9 {
		t.Errorf("replayed fields lost: %+v", got)
	}
	if sha, ok := s.cachedSHA(key4); !ok || sha != sha4 {
		t.Errorf("result cache = %q, %v; want %s", sha, ok, sha4)
	}
	if s.replayed != 2 {
		t.Errorf("replayed %d queued jobs, want 2", s.replayed)
	}
	// Queue order: priority 9 (running at the stop) before priority 5.
	for _, id := range []string{"j000005", "j000003"} {
		if j := s.next(); j == nil || j.ID != id {
			t.Fatalf("next = %v, want %s", j, id)
		}
	}
	j, err := s.accept(jobSpec{V: 1, Spec: "chain:9", M: 2, MaxK: 1, Solver: "dense"}, 0, "c", "h", time.Second, freshLimits())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j000006" {
		t.Errorf("next ID = %s, want j000006", j.ID)
	}
}

// testdata/retired_solver_wal is a data dir written by a daemon that still
// served the since-retired Lanczos solver: one job accepted with
// "solver":"lanczos" and never run. The daemon must replay it without
// error, fail it as a typed input fault that names the solver, and go on
// serving new work.
func TestReplayRetiredSolverJobFailsTyped(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "retired_solver_wal"), dir)
	srv, url := newTestServer(t, Config{DataDir: dir, Workers: 1})
	if srv.store.replayed != 1 {
		t.Fatalf("replayed %d queued jobs, want 1", srv.store.replayed)
	}
	info := waitState(t, srv, "j000000", StateDone, StateFailed)
	if info.Status != StateFailed || info.Error == nil || info.Error.Kind != KindInput ||
		!strings.Contains(info.Error.Message, `unknown solver "lanczos"`) {
		t.Fatalf("retired-solver job ended %+v, want a typed %q failure naming the solver", info, KindInput)
	}
	next := submit(t, url, JobRequest{Spec: "chain:8", M: 2, MaxK: 4, Solver: "chebyshev"}, http.StatusAccepted)
	if done := waitState(t, srv, next.ID, StateDone, StateFailed); done.Status != StateDone {
		t.Fatalf("job submitted after the replay ended %+v, want done", done)
	}
}
