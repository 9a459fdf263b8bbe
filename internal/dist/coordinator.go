package dist

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// Sink is where shard outcomes land. *experiments.Merge satisfies it
// exactly; tests substitute an in-memory recorder. Every method must be
// safe for concurrent use — the coordinator's HTTP handlers call them as
// uploads arrive.
type Sink interface {
	// Reusable reports whether a prior artifact for the shard still
	// verifies, in which case the coordinator marks it done without
	// granting it (the -resume skip path).
	Reusable(name string) bool
	// CommitResult durably merges one completed shard (last-write-wins on
	// repeats). An error means the upload was rejected or could not be
	// made durable; the coordinator keeps the shard unresolved.
	CommitResult(name, title string, csv []byte, wallMS int64, worker string) error
	// CommitFailure records one failed attempt (audit trail, not a verdict).
	CommitFailure(name string, wallMS int64, cause error, worker string) error
	// CommitPoisoned records that the sweep gave up on the shard.
	CommitPoisoned(name string, attempts int, cause error) error
}

// Config configures a Coordinator.
type Config struct {
	// Shards are the experiment names to distribute, in canonical
	// (Runners()) order.
	Shards []string
	// ConfigHash pins the sweep: claims and uploads carrying a different
	// hash are rejected with 409 so a misconfigured worker cannot pollute
	// the results.
	ConfigHash string
	// Sink receives shard outcomes.
	Sink Sink
	// OutDir holds the WAL (dist.json). Usually the sweep's output
	// directory, next to manifest.json.
	OutDir string
	// Resume replays an existing WAL, restoring assignment state from a
	// crashed coordinator; otherwise any prior WAL is discarded.
	Resume bool
	// LeaseTTL is how long a granted shard stays owned without a renewal.
	// Default 30s.
	LeaseTTL time.Duration
	// MaxAttempts caps grants per shard before it is poisoned. Default 3.
	MaxAttempts int
	// RetryDelay is the base of the exponential re-queue backoff after a
	// failed or expired attempt. Default 1s.
	RetryDelay time.Duration
	// AuthToken, when non-empty, requires every request to carry
	// "Authorization: Bearer <token>" (shared with workers via
	// WorkerConfig.AuthToken / GRAPHIO_TOKEN). Token check only; transport
	// encryption is out of scope.
	AuthToken string
	// WallHistory maps shard names to their wall time in a prior run
	// (experiments.Merge.WallHistory provides it from the manifest). When
	// non-empty the coordinator grants the slowest known shards first (LPT
	// scheduling), shrinking sweep makespan: without it a long shard
	// granted last leaves one worker grinding while the rest idle.
	WallHistory map[string]time.Duration
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 30 * time.Second
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

func (c Config) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return time.Second
}

// walName is the coordinator's journal, kept in OutDir beside the sweep
// manifest. Same CRC-framed JSONL format (persist.Journal).
const walName = "dist.json"

// walRecord is one assignment-state transition. Each record reaches the
// shard table through persist.Log.Apply, which appends (and fsyncs) it
// before the reducer applies it, so a coordinator killed at any instant
// restarts into a state it had durably announced.
type walRecord struct {
	Kind    string `json:"kind"` // grant | complete | fail | poison
	Shard   string `json:"shard"`
	Worker  string `json:"worker,omitempty"`
	Lease   string `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// shardState is one shard's slot in the coordinator's state machine:
// pending -> leased -> done | back to pending (attempt burned) | poisoned.
type shardState struct {
	name      string
	state     string // StatePending | StateLeased | StateDone | StatePoisoned
	attempts  int    // grants so far (1-based on the current lease)
	worker    string
	lease     string
	expiry    time.Time // lease deadline while leased
	notBefore time.Time // re-queue backoff gate while pending
	lastErr   string
	scope     *obs.Scope // open while unresolved and at least once granted
}

// Coordinator shards a sweep across workers: it serves the claim protocol,
// enforces leases, journals every transition to the WAL, and funnels
// outcomes into the Sink.
type Coordinator struct {
	cfg   Config
	scope *obs.Scope

	mu     sync.Mutex
	wal    *persist.Log[walRecord]
	shards map[string]*shardState
	order  []string // canonical (display/snapshot) order
	grants []string // claim-time order: LPT when WallHistory is known
	seq    int      // lease sequence, monotone across restarts (replayed from WAL)

	srv       *http.Server
	ln        net.Listener
	serveDone chan struct{} // closed when the Serve goroutine exits
}

// New opens (or, with cfg.Resume, replays) the WAL and returns a
// coordinator ready to serve. Shards whose artifacts the Sink already
// verifies are marked done up front — the distributed analogue of the
// -resume skip.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("dist: no shards to coordinate")
	}
	if cfg.Sink == nil {
		return nil, errors.New("dist: Config.Sink is required")
	}
	walPath := filepath.Join(cfg.OutDir, walName)
	if !cfg.Resume {
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		scope:  obs.NewScope("dist"),
		shards: map[string]*shardState{},
		order:  append([]string(nil), cfg.Shards...),
	}
	c.grants = buildClaimOrder(c.order, cfg.WallHistory)
	for _, name := range c.order {
		c.shards[name] = &shardState{name: name, state: StatePending}
	}
	wal, err := persist.OpenLog(walPath, c.apply)
	if err != nil {
		c.scope.Close()
		return nil, err
	}
	c.wal = wal
	if err := c.restored(); err != nil {
		_ = wal.Close()
		c.scope.Close()
		return nil, err
	}
	// Shards still pending after replay may already have verified artifacts
	// (a prior sweep, or work that completed before a crash the WAL missed
	// the tail of): skip them exactly like a single-process -resume would.
	for _, name := range c.order {
		s := c.shards[name]
		if s.state == StatePending && cfg.Sink.Reusable(name) {
			s.state, s.lastErr = StateDone, ""
			c.logf("dist: shard %s reused (artifact verified)", name)
			c.scope.Inc("dist.reused")
		}
	}
	return c, nil
}

// apply is the shard state machine's reducer: the one place a WAL record
// changes a shard, whether the record was just appended (via c.wal.Apply,
// caller holding c.mu) or is being replayed by New. Leases are armed with
// a fresh TTL from now, so a replayed lease outlives the outage: a
// surviving worker keeps renewing and never notices it, while a dead
// worker's lease expires on the normal schedule and the shard re-queues.
func (c *Coordinator) apply(r walRecord) error {
	s, ok := c.shards[r.Shard]
	if !ok {
		// A WAL written by a sweep over a different shard set: refuse
		// rather than silently dropping assignment state.
		return fmt.Errorf("dist: WAL names unknown shard %q (stale dist.json? run without -resume)", r.Shard)
	}
	switch r.Kind {
	case "grant":
		c.seq++
		s.state, s.worker, s.lease, s.attempts = StateLeased, r.Worker, r.Lease, r.Attempt
		s.expiry = obs.Now().Add(c.cfg.leaseTTL())
	case "complete":
		s.state, s.worker, s.lease, s.lastErr = StateDone, "", "", ""
	case "fail":
		s.state, s.worker, s.lease, s.lastErr = StatePending, "", "", r.Error
		if r.Attempt > 0 {
			s.attempts = r.Attempt
		}
		s.notBefore = obs.Now().Add(c.requeueDelay(s.attempts))
	case "poison":
		s.state, s.worker, s.lease, s.lastErr = StatePoisoned, "", "", r.Error
		s.attempts = r.Attempt
	default:
		return fmt.Errorf("dist: unknown WAL record kind %q", r.Kind)
	}
	return nil
}

// restored finishes a replay: leases the WAL left open get a telemetry
// scope, poisoned shards are re-announced to the (restarted) sink, and
// done shards are re-verified through it.
func (c *Coordinator) restored() error {
	replayed := 0
	for _, name := range c.order {
		s := c.shards[name]
		switch s.state {
		case StateLeased:
			c.logf("dist: restored lease %s on %s (worker %s, fresh TTL)", s.lease, s.name, s.worker)
			s.scope = c.scope.Child(s.name)
			replayed++
		case StatePoisoned:
			// Repopulate the sink's poisoned set so the final report still
			// names the shard after a coordinator restart.
			if err := c.cfg.Sink.CommitPoisoned(s.name, s.attempts, errors.New(s.lastErr)); err != nil {
				return err
			}
			replayed++
		case StateDone:
			// The WAL says done, but the restarted sink has not seen the
			// result — and the artifact could have vanished in the outage.
			// Re-verify through the sink, which reloads the table for the
			// final report on success (the -resume skip path); on failure
			// the shard re-queues rather than silently dropping out.
			if c.cfg.Sink.Reusable(s.name) {
				replayed++
			} else {
				s.state = StatePending
				c.logf("dist: shard %s done in the WAL but its artifact no longer verifies; re-queuing", s.name)
			}
		}
	}
	if replayed > 0 {
		c.logf("dist: WAL replayed %d resolved/in-flight shard(s)", replayed)
	}
	return nil
}

// buildClaimOrder decides the order shards are granted in: shards with no
// recorded wall time first, in canonical order (their cost is unknown, so
// starting them early bounds the surprise), then known shards
// longest-first — the classic LPT heuristic, which keeps the slowest
// shard off the critical path of the sweep's tail.
func buildClaimOrder(canonical []string, hist map[string]time.Duration) []string {
	if len(hist) == 0 {
		return append([]string(nil), canonical...)
	}
	var unknown, known []string
	for _, name := range canonical {
		if _, ok := hist[name]; ok {
			known = append(known, name)
		} else {
			unknown = append(unknown, name)
		}
	}
	sort.SliceStable(known, func(i, j int) bool { return hist[known[i]] > hist[known[j]] })
	return append(unknown, known...)
}

// requeueDelay is the backoff before a shard that burned attempt n becomes
// claimable again: RetryDelay * 2^(n-1), up to half of that again as
// deterministic jitter, capped at 30s.
func (c *Coordinator) requeueDelay(attempt int) time.Duration {
	d := c.cfg.retryDelay()
	for i := 1; i < attempt && d < 30*time.Second; i++ {
		d *= 2
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d + time.Duration(jitterFrac(int64(attempt), int64(c.seq))*float64(d)/2)
}

// expireLocked sweeps leases past their deadline; the caller holds c.mu.
// An expired lease burns the attempt: the shard is re-queued with backoff
// or poisoned once attempts are exhausted.
func (c *Coordinator) expireLocked() {
	now := obs.Now()
	for _, name := range c.order {
		s := c.shards[name]
		if s.state != StateLeased || now.Before(s.expiry) {
			continue
		}
		cause := fmt.Errorf("lease %s expired (worker %s stopped renewing)", s.lease, s.worker)
		c.logf("dist: shard %s attempt %d: %v", s.name, s.attempts, cause)
		c.scope.Inc("dist.expirations")
		//lint:ignore lock-blocking expiry must burn the attempt atomically with the lease state under c.mu; failure records are small appends, not CSV merges
		if err := c.cfg.Sink.CommitFailure(s.name, 0, cause, s.worker); err != nil {
			c.logf("dist: recording expiry of %s: %v", s.name, err)
		}
		c.resolveAttemptLocked(s, cause)
	}
}

// resolveAttemptLocked ends the current attempt in failure: re-queue with
// backoff, or poison past the cap. The caller holds c.mu.
func (c *Coordinator) resolveAttemptLocked(s *shardState, cause error) {
	if s.attempts >= c.cfg.maxAttempts() {
		//lint:ignore lock-blocking append-before-effect: poison/fail records must be durable before the transition they describe, atomically under the caller's c.mu
		if err := c.wal.Apply(walRecord{Kind: "poison", Shard: s.name, Attempt: s.attempts, Error: cause.Error()}); err != nil {
			c.logf("dist: WAL poison %s: %v", s.name, err)
			return
		}
		if err := c.cfg.Sink.CommitPoisoned(s.name, s.attempts, cause); err != nil {
			c.logf("dist: poisoning %s: %v", s.name, err)
		}
		s.scope.Close()
		s.scope = nil
		c.scope.Inc("dist.poisoned")
		c.logf("dist: shard %s poisoned after %d attempt(s): %v", s.name, s.attempts, cause)
		return
	}
	if err := c.wal.Apply(walRecord{Kind: "fail", Shard: s.name, Attempt: s.attempts, Error: cause.Error()}); err != nil {
		c.logf("dist: WAL fail %s: %v", s.name, err)
	}
}

// Handler returns the coordinator's HTTP API (bearer-token guarded when
// Config.AuthToken is set).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathClaim, c.handleClaim)
	mux.HandleFunc("POST "+PathRenew, c.handleRenew)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	mux.HandleFunc("POST "+PathFail, c.handleFail)
	mux.HandleFunc("GET "+PathState, c.handleState)
	if c.cfg.AuthToken == "" {
		return mux
	}
	want := []byte("Bearer " + c.cfg.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// maxBody bounds request bodies; the largest legitimate payload is a CSV
// table upload, far under this.
const maxBody = 64 << 20

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		http.Error(w, "decoding body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ConfigHash != c.cfg.ConfigHash {
		http.Error(w, fmt.Sprintf("config hash mismatch: coordinator sweeps %s, worker configured for %s",
			c.cfg.ConfigHash, req.ConfigHash), http.StatusConflict)
		return
	}
	resp, errMsg := c.claim(req)
	if errMsg != "" {
		http.Error(w, errMsg, http.StatusInternalServerError)
		return
	}
	reply(w, resp)
}

// claim runs the grant state machine under c.mu and returns the response
// to send. The HTTP write happens in the handler after the lock is
// released: a slow or stalled client must not hold up every other
// worker's claim.
func (c *Coordinator) claim(req ClaimRequest) (ClaimResponse, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	now := obs.Now()
	unresolved := false
	var nextEvent time.Time
	for _, name := range c.grants {
		s := c.shards[name]
		switch s.state {
		case StateDone, StatePoisoned:
			continue
		case StateLeased:
			unresolved = true
			if nextEvent.IsZero() || s.expiry.Before(nextEvent) {
				nextEvent = s.expiry
			}
			continue
		}
		unresolved = true
		if now.Before(s.notBefore) {
			if nextEvent.IsZero() || s.notBefore.Before(nextEvent) {
				nextEvent = s.notBefore
			}
			continue
		}
		// Grant. The lease id is derived from the NEXT sequence number;
		// c.seq itself only advances when the reducer applies the durable
		// record, so a failed append leaves nothing to roll back.
		lease := fmt.Sprintf("L%06d", c.seq+1)
		attempt := s.attempts + 1
		//lint:ignore lock-blocking append-before-effect: the grant record must be durable before the lease transition it describes, atomically under c.mu
		if err := c.wal.Apply(walRecord{Kind: "grant", Shard: s.name, Worker: req.Worker, Lease: lease, Attempt: attempt}); err != nil {
			return ClaimResponse{}, "journaling grant: " + err.Error()
		}
		if s.scope == nil {
			s.scope = c.scope.Child(s.name)
		}
		c.scope.Inc("dist.claims")
		c.logf("dist: shard %s -> worker %s (lease %s, attempt %d/%d)", s.name, req.Worker, lease, attempt, c.cfg.maxAttempts())
		return ClaimResponse{
			Status: ClaimShard, Shard: s.name, Lease: lease,
			LeaseTTLMS: c.cfg.leaseTTL().Milliseconds(), Attempt: attempt,
		}, ""
	}
	if !unresolved {
		return ClaimResponse{Status: ClaimDone}, ""
	}
	retry := 500 * time.Millisecond
	if !nextEvent.IsZero() {
		if d := nextEvent.Sub(now); d < retry {
			retry = d
		}
	}
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return ClaimResponse{Status: ClaimWait, RetryMS: retry.Milliseconds()}, ""
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decode(w, r, &req) {
		return
	}
	reply(w, c.renew(req))
}

// renew extends a held lease under c.mu; the reply is written lock-free
// in the handler.
func (c *Coordinator) renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	s, ok := c.shards[req.Shard]
	if !ok {
		return RenewResponse{OK: false, Reason: "unknown shard"}
	}
	if s.state != StateLeased || s.lease != req.Lease {
		c.scope.Inc("dist.renewals_rejected")
		return RenewResponse{OK: false, Reason: "lease not held (expired and reassigned, or shard resolved)"}
	}
	// Renewals are in-memory only: the WAL does not need them, because a
	// restarted coordinator re-arms every open lease with a fresh TTL.
	s.expiry = obs.Now().Add(c.cfg.leaseTTL())
	c.scope.Inc("dist.renewals")
	return RenewResponse{OK: true}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ConfigHash != c.cfg.ConfigHash {
		http.Error(w, "config hash mismatch", http.StatusConflict)
		return
	}
	// Phase 1, locked: validate the shard and capture lease freshness.
	c.mu.Lock()
	c.expireLocked()
	s, ok := c.shards[req.Shard]
	if !ok {
		c.mu.Unlock()
		http.Error(w, "unknown shard "+req.Shard, http.StatusBadRequest)
		return
	}
	// Uploads are accepted regardless of lease state: the result is a pure
	// function of the config hash both sides verified, so a late upload
	// from an expired lease (or a retry after a lost response) merges
	// last-write-wins instead of being dropped. That is what makes the
	// half-open failure mode converge.
	stale := s.state != StateLeased || s.lease != req.Lease || s.worker != req.Worker
	c.mu.Unlock()

	// Phase 2, unlocked: merge the upload. CommitResult fsyncs a
	// potentially multi-megabyte CSV; under c.mu that one fsync would
	// stall every claim, renew and expiry sweep for its duration. The Sink
	// contract requires concurrent safety and the merge is
	// last-write-wins, so two racing uploads of one shard converge in
	// either order.
	if err := c.cfg.Sink.CommitResult(req.Shard, req.Title, req.CSV, req.WallMS, req.Worker); err != nil {
		// Rejected (garbage CSV) or not durable: the shard stays unresolved.
		http.Error(w, "committing result: "+err.Error(), http.StatusInternalServerError)
		return
	}

	// Phase 3, locked again: journal and apply the completion. The shard
	// may have changed state while unlocked (expiry, even poisoning); a
	// durable verified result still wins — same convergence argument as
	// the stale-upload path.
	c.mu.Lock()
	if s.state != StateDone {
		//lint:ignore lock-blocking append-before-effect: the completion record must be durable before the transition it describes, atomically under c.mu
		if err := c.wal.Apply(walRecord{Kind: "complete", Shard: req.Shard, Worker: req.Worker, Lease: req.Lease}); err != nil {
			c.mu.Unlock()
			http.Error(w, "journaling completion: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.scope.Close()
	s.scope = nil
	c.scope.Inc("dist.completions")
	if stale {
		c.scope.Inc("dist.late_uploads")
		c.logf("dist: shard %s completed by %s on a lost lease (merged last-write-wins)", req.Shard, req.Worker)
	} else {
		c.logf("dist: shard %s completed by %s (%dms)", req.Shard, req.Worker, req.WallMS)
	}
	c.mu.Unlock()
	reply(w, CompleteResponse{OK: true, Stale: stale})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decode(w, r, &req) {
		return
	}
	resp, errMsg := c.fail(req)
	if errMsg != "" {
		http.Error(w, errMsg, http.StatusBadRequest)
		return
	}
	reply(w, resp)
}

// fail burns the reported attempt under c.mu; the reply is written
// lock-free in the handler.
func (c *Coordinator) fail(req FailRequest) (FailResponse, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	s, ok := c.shards[req.Shard]
	if !ok {
		return FailResponse{}, "unknown shard " + req.Shard
	}
	if s.state != StateLeased || s.lease != req.Lease {
		// The attempt was already accounted (expiry or reassignment); this
		// report is news from the past. Acknowledge and ignore.
		return FailResponse{OK: true, Poisoned: s.state == StatePoisoned}, ""
	}
	cause := errors.New(req.Error)
	c.scope.Inc("dist.failures")
	c.logf("dist: shard %s attempt %d failed on %s: %v", s.name, s.attempts, req.Worker, cause)
	//lint:ignore lock-blocking attempt accounting must stay atomic with the lease state under c.mu; failure records are small appends, not CSV merges
	if err := c.cfg.Sink.CommitFailure(s.name, req.WallMS, cause, req.Worker); err != nil {
		c.logf("dist: recording failure of %s: %v", s.name, err)
	}
	c.resolveAttemptLocked(s, cause)
	return FailResponse{OK: true, Poisoned: s.state == StatePoisoned}, ""
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked()
	resp := c.snapshotLocked()
	c.mu.Unlock()
	reply(w, resp)
}

func (c *Coordinator) snapshotLocked() StateResponse {
	now := obs.Now()
	resp := StateResponse{Done: true, ConfigHash: c.cfg.ConfigHash}
	for _, name := range c.order {
		s := c.shards[name]
		info := ShardInfo{Name: name, Status: s.state, Attempts: s.attempts, Worker: s.worker, Error: s.lastErr}
		if s.state == StateLeased {
			info.LeaseMSLeft = s.expiry.Sub(now).Milliseconds()
		}
		if s.state != StateDone && s.state != StatePoisoned {
			resp.Done = false
		}
		resp.Shards = append(resp.Shards, info)
	}
	return resp
}

// Snapshot returns the current shard states (the /v1/state body).
func (c *Coordinator) Snapshot() StateResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return c.snapshotLocked()
}

// Poisoned returns the shards the sweep has given up on, in canonical order.
func (c *Coordinator) Poisoned() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for _, name := range c.order {
		if c.shards[name].state == StatePoisoned {
			names = append(names, name)
		}
	}
	return names
}

// Start begins serving on addr (":0" picks a free port) and returns the
// bound address workers should dial.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c.Handler()}
	c.serveDone = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		_ = c.srv.Serve(ln)
	}(c.serveDone)
	c.logf("dist: coordinator serving on %s (%d shard(s), lease TTL %v)", ln.Addr(), len(c.order), c.cfg.leaseTTL())
	return ln.Addr().String(), nil
}

// Wait blocks until every shard is resolved (done or poisoned) or ctx is
// cancelled, expiring leases as it goes so progress does not depend on
// worker traffic.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := c.cfg.leaseTTL() / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		c.mu.Lock()
		c.expireLocked()
		resolved := true
		for _, s := range c.shards {
			if s.state != StateDone && s.state != StatePoisoned {
				resolved = false
				break
			}
		}
		c.mu.Unlock()
		if resolved {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops the server (if started), closes the WAL, and closes the
// coordinator's telemetry scopes. Committed state is already durable; a
// coordinator that dies without Close loses nothing the WAL has not
// recorded.
func (c *Coordinator) Close() {
	if c.srv != nil {
		_ = c.srv.Close()
		// Join the Serve goroutine so no handler races the WAL close below.
		<-c.serveDone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		s.scope.Close()
		s.scope = nil
	}
	c.scope.Close()
	//lint:ignore lock-blocking shutdown path: the server is stopped and its goroutine joined, so the final WAL close convoys nothing
	_ = c.wal.Close()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}
