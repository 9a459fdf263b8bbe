package dist

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// snapshotNoTTL is Snapshot with the lease countdown zeroed: replay re-arms
// leases with a fresh TTL, so only the time left may differ.
func snapshotNoTTL(c *Coordinator) StateResponse {
	snap := c.Snapshot()
	for i := range snap.Shards {
		snap.Shards[i].LeaseMSLeft = 0
	}
	return snap
}

// A coordinator restarted with -resume must report exactly the state the
// live coordinator reported before it went down: replay and the live path
// run the same reducer.
func TestReplayMatchesLiveState(t *testing.T) {
	fail := func(t *testing.T, url string, cl ClaimResponse) {
		var resp FailResponse
		if _, err := postJSON(t, url+PathFail, FailRequest{Worker: "w1", Shard: cl.Shard, Lease: cl.Lease, Error: "boom"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	complete := func(t *testing.T, url string, cl ClaimResponse) {
		var resp CompleteResponse
		if _, err := postJSON(t, url+PathComplete, CompleteRequest{
			Worker: "w1", Shard: cl.Shard, Lease: cl.Lease, ConfigHash: "h",
			Title: "t", CSV: []byte("k\n1\n"), WallMS: 1,
		}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	claim := func(t *testing.T, url string) ClaimResponse {
		return claimUntilShard(t, url, "w1", "h")
	}
	for _, tc := range []struct {
		name    string
		history func(t *testing.T, url string)
	}{
		{"fail then complete", func(t *testing.T, url string) {
			fail(t, url, claim(t, url))
			complete(t, url, claim(t, url))
		}},
		{"fail, fail, poison", func(t *testing.T, url string) {
			fail(t, url, claim(t, url))
			fail(t, url, claim(t, url))
			fail(t, url, claim(t, url))
		}},
		{"open grant", func(t *testing.T, url string) {
			claim(t, url)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := newMemSink()
			cfg := Config{
				Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
				OutDir: t.TempDir(), MaxAttempts: 3, RetryDelay: time.Millisecond,
			}
			c1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c1.Handler())
			tc.history(t, srv.URL)
			want := snapshotNoTTL(c1)
			srv.Close()
			c1.Close()

			cfg.Resume = true
			c2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got := snapshotNoTTL(c2); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after restart differs from the live state:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// testdata/parent_wal/dist.json was written by the coordinator before its
// WAL moved onto persist.Log: alpha completed, beta failed twice and was
// poisoned, gamma failed once then completed, delta holds an open lease.
func TestReplayParentWAL(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "parent_wal", walName))
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore persist-writes copying a read-only fixture into a scratch out dir
	if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sink := newMemSink()
	sink.reuse["alpha"], sink.reuse["gamma"] = true, true
	c, err := New(Config{
		Shards: []string{"alpha", "beta", "gamma", "delta"}, ConfigHash: "h", Sink: sink,
		OutDir: dir, Resume: true, MaxAttempts: 2, RetryDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Close()
	want := StateResponse{ConfigHash: "h", Shards: []ShardInfo{
		{Name: "alpha", Status: StateDone, Attempts: 1},
		{Name: "beta", Status: StatePoisoned, Attempts: 2, Error: "boom"},
		{Name: "gamma", Status: StateDone, Attempts: 2},
		{Name: "delta", Status: StateLeased, Attempts: 1, Worker: "w1"},
	}}
	if got := snapshotNoTTL(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state:\n got %+v\nwant %+v", got, want)
	}
	if n, ok := sink.poisonedAttempts("beta"); !ok || n != 2 {
		t.Errorf("poison not re-announced to the sink: (%d, %v)", n, ok)
	}
	// Lease numbering continues after the six replayed grants.
	c.forceExpire("delta")
	if cl := claimUntilShard(t, srv.URL, "w2", "h"); cl.Shard != "delta" || cl.Lease != "L000007" || cl.Attempt != 2 {
		t.Fatalf("post-replay grant = %+v, want delta attempt 2 under L000007", cl)
	}
}
