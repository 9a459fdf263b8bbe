package persist_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphio/internal/faultinject"
	"graphio/internal/persist"
)

// tearWrite tears its tearOn-th write halfway — the prefix reaches the
// file, like a full disk or a dying process mid-write — and passes every
// other write through.
type tearWrite struct {
	persist.File
	tearOn, writes int
}

func (f *tearWrite) Write(p []byte) (int, error) {
	f.writes++
	if f.writes != f.tearOn {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errors.New("injected torn write")
}

func appendAll(t *testing.T, j *persist.Journal, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatalf("append %s: %v", r, err)
		}
	}
}

func replayStrings(t *testing.T, path string) []string {
	t.Helper()
	j, recs, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

// A torn append must not poison the appends after it: the records Append
// acknowledged are exactly the records a reopen replays.
func TestJournalTornAppendDoesNotCorruptLaterAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	persist.WrapFile = func(f persist.File) persist.File { return &tearWrite{File: f, tearOn: 2} }
	t.Cleanup(func() { persist.WrapFile = nil })
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, `{"seq":1}`)
	if err := j.Append([]byte(`{"seq":2}`)); err == nil {
		t.Fatal("torn append reported success")
	}
	appendAll(t, j, `{"seq":3}`, `{"seq":4}`)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	persist.WrapFile = nil
	want := []string{`{"seq":1}`, `{"seq":3}`, `{"seq":4}`}
	if got := replayStrings(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// An append whose fsync fails was reported as failed, so it must not
// replay either: the fully written but unsynced frame is rolled back.
func TestJournalFailedSyncIsRolledBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	withFaultyFiles(t, func(f persist.File) *faultinject.File {
		return &faultinject.File{F: f, FailOnSync: 2}
	})
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, `{"seq":1}`)
	if err := j.Append([]byte(`{"seq":2}`)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append with failing sync = %v, want injected fault", err)
	}
	appendAll(t, j, `{"seq":3}`)
	j.Close()
	persist.WrapFile = nil
	want := []string{`{"seq":1}`, `{"seq":3}`}
	if got := replayStrings(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// When the rollback itself is impossible the journal refuses every later
// append instead of writing behind torn bytes.
func TestJournalRefusesAppendsWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	persist.WrapFile = func(f persist.File) persist.File { return &tearWrite{File: f, tearOn: 2} }
	t.Cleanup(func() { persist.WrapFile = nil })
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, `{"seq":1}`)
	// With the path gone, truncating back to the last good record fails.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"seq":2}`)); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := j.Append([]byte(`{"seq":3}`)); err == nil {
		t.Fatal("journal accepted an append after an unrecoverable torn write")
	}
}

// Append stores the payload bytes it was given, so a valid payload that is
// not in compact form, or holds characters JSON encoders escape, replays
// byte for byte instead of failing its own checksum.
func TestJournalReplaysPayloadVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a": 1, "s": "<&>"}`, `{"seq":2}`}
	appendAll(t, j, want...)
	j.Close()
	if got := replayStrings(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// kv is the test reducer's record: set key K to V, or delete it when Del.
type kv struct {
	K   string `json:"k"`
	V   int    `json:"v,omitempty"`
	Del bool   `json:"del,omitempty"`
}

// kvState is a toy state machine driven by a persist.Log.
type kvState struct {
	m     map[string]int
	calls int
}

func (s *kvState) apply(r kv) error {
	s.calls++
	if r.K == "" {
		return errors.New("empty key")
	}
	if r.Del {
		delete(s.m, r.K)
	} else {
		s.m[r.K] = r.V
	}
	return nil
}

func openKV(t *testing.T, path string) (*persist.Log[kv], *kvState) {
	t.Helper()
	st := &kvState{m: map[string]int{}}
	l, err := persist.OpenLog(path, st.apply)
	if err != nil {
		t.Fatal(err)
	}
	return l, st
}

// Live state and replayed state come from the same reducer, so they match.
func TestLogReplayMatchesLiveState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.jsonl")
	l, live := openKV(t, path)
	for i, r := range []kv{{K: "a", V: 1}, {K: "b", V: 2}, {K: "a", V: 3}, {K: "b", Del: true}, {K: "c", V: 4}} {
		if err := l.Apply(r); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	l.Close()
	l2, replayed := openKV(t, path)
	defer l2.Close()
	if !reflect.DeepEqual(live.m, replayed.m) {
		t.Fatalf("replayed %v, live %v", replayed.m, live.m)
	}
}

// A record whose append fails never reaches the reducer.
func TestLogApplyFailureHasNoEffect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.jsonl")
	l, st := openKV(t, path)
	if err := l.Apply(kv{K: "a", V: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Apply(kv{K: "b", V: 2}); err == nil {
		t.Fatal("Apply on a closed log succeeded")
	}
	if st.calls != 1 || len(st.m) != 1 {
		t.Fatalf("reducer ran %d times, state %v; want only the durable record applied", st.calls, st.m)
	}
}

// Compact swaps in a snapshot without re-running the reducer, and the
// journal keeps appending after it.
func TestLogCompactReplacesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.jsonl")
	l, st := openKV(t, path)
	for i := 0; i < 10; i++ {
		if err := l.Apply(kv{K: fmt.Sprint("k", i%3), V: i}); err != nil {
			t.Fatal(err)
		}
	}
	calls := st.calls
	var snap []kv
	for _, k := range []string{"k0", "k1", "k2"} {
		snap = append(snap, kv{K: k, V: st.m[k]})
	}
	if err := l.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if st.calls != calls {
		t.Errorf("Compact ran the reducer %d times", st.calls-calls)
	}
	if err := l.Apply(kv{K: "k0", Del: true}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := len(replayStrings(t, path)); got != 4 {
		t.Fatalf("compacted journal holds %d records, want 4", got)
	}
	l2, replayed := openKV(t, path)
	defer l2.Close()
	if !reflect.DeepEqual(st.m, replayed.m) {
		t.Fatalf("replayed %v, live %v", replayed.m, st.m)
	}
}

// A CRC-valid record that does not decode is corruption, and a reducer
// error aborts the open.
func TestOpenLogRefusesBadRecords(t *testing.T) {
	dir := t.TempDir()
	undecodable := filepath.Join(dir, "a.jsonl")
	j, _, err := persist.OpenJournal(undecodable)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, `{"k":"a","v":1}`, `[1,2]`, `{"k":"b","v":2}`)
	j.Close()
	var ce *persist.CorruptError
	if _, err := persist.OpenLog(undecodable, (&kvState{m: map[string]int{}}).apply); !errors.As(err, &ce) || ce.Line != 2 {
		t.Fatalf("OpenLog on undecodable record = %v, want *CorruptError at line 2", err)
	}

	rejected := filepath.Join(dir, "b.jsonl")
	j, _, err = persist.OpenJournal(rejected)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, `{"k":"a","v":1}`, `{"v":2}`)
	j.Close()
	if _, err := persist.OpenLog(rejected, (&kvState{m: map[string]int{}}).apply); err == nil {
		t.Fatal("OpenLog ignored a reducer error")
	}
}
