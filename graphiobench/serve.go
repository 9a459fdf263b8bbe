package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/graphiod"
	"graphio/internal/laplacian"
	"graphio/internal/obs"
)

// Serve workload constants. graphiod runs one worker: with the default two
// on a 2-core machine, two jobs and the generator contend for the cores, and
// a job's time then follows whatever else the host runs (one competing busy
// thread made the gated time 40–70% slower with two workers, about half
// that with one). The rate is fixed once, so that the worker is about half
// busy with this mix on the 2-core machine the benchmark was calibrated on;
// a later change is judged at this rate.
const (
	serveWorkers    = 1
	serveRate       = 30.0                  // requests per second, Poisson
	pollInterval    = 25 * time.Millisecond // GET /v1/jobs/{id} period while waiting for a job
	serveSetupReps  = 5
	maxGenLagP99    = 50 * time.Millisecond // a run whose generator ran later than this is invalid
	maxBacklogEnd   = 24                    // a run ending with more queued jobs than this is invalid
	serveMaxK       = 60                    // graphiod's default max_k: warm-up and hit keys use it, new keys never do
	minMaxK         = 2                     // the smallest max_k a new key draws
	directMaxK      = 120                   // h of the reference solves; below every serve graph's n, so never capped
	jobWaitLimit    = 60 * time.Second
	serveUsers      = 16
	warmM           = 1 // M of the warm-up keys
	uploadLayers    = 10
	uploadMaxIn     = 8
	uploadMinWidth  = 16
	uploadMaxWidth  = 24
	uploadM         = 1
	shutdownTimeout = 30 * time.Second
)

// mixBlock is the request mix: every consecutive block of 20 arrivals holds
// exactly 10 cache hits, 8 new (spec, M) pairs and 2 uploads, in a seeded
// order. Fixing the shares per block, instead of drawing each request's
// kind independently, keeps the mix the same from seed to seed, so the
// seed moves only the order, the (M, max_k) keys, the upload graphs and
// the arrival times.
var mixBlock = []string{
	kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit, kindHit,
	kindSpec, kindSpec, kindSpec, kindSpec, kindSpec, kindSpec, kindSpec, kindSpec,
	kindUpload, kindUpload,
}

// poolSpec is a generator spec new-bound requests draw from, with MaxM, the
// largest M at which Theorem 4 still certifies a positive bound on it.
type poolSpec struct {
	Spec string
	MaxM int
}

// specPool holds small graphs (solo job 5–100 ms on the calibration
// machine), so the same graph recurs under many keys and per-job numerics
// stay small next to admission, the WAL, the artifact cache and the queue.
// A new key draws M from [1, MaxM] and max_k from [minMaxK, directMaxK)
// without serveMaxK, so nearly every artifact certifies a nonzero bound
// whose value and best_k the answer check can catch going wrong.
var specPool = []poolSpec{
	{"matmul:5", 3}, {"grid:16", 1}, {"bhk:8", 13}, {"strassen:4", 2}, {"matmul:6", 4},
	{"grid:18", 1}, {"fft:5", 1}, {"grid:14", 1}, {"hypercube:8", 13}, {"bhk:7", 7},
}

// warmSpecs are completed during set-up at (warmM, serveMaxK); cache-hit
// requests repeat them. Each certifies a positive bound there.
var warmSpecs = []string{"fft:5", "matmul:5", "bhk:8", "grid:14", "hypercube:8", "strassen:4"}

// Request kinds of the serve mix.
const (
	kindHit    = "hit"
	kindSpec   = "spec"
	kindUpload = "upload"
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	At     time.Duration // offset from the start of the schedule
	Kind   string
	Client string
	Spec   string // kindHit, kindSpec
	M      int
	MaxK   int
	// Graph is the upload's JSON (kindUpload).
	Graph []byte
}

// cycler deals the items of a list in seeded random order, reshuffling
// after each full round, so every item is used equally often.
type cycler struct {
	rng   *rand.Rand
	items []string
	order []int
}

func (c *cycler) next() string {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.items))
	}
	i := c.order[0]
	c.order = c.order[1:]
	return c.items[i]
}

// key is one (M, max_k) pair of a new-bound request.
type key struct{ M, MaxK int }

// newKeys deals every pool spec's keys without repeats: M from [1, MaxM]
// and each spec's first k max_k values from [minMaxK, directMaxK) without
// serveMaxK, k sized so each spec has at least perSpec keys, all in a
// seeded random order.
func newKeys(rng *rand.Rand, perSpec int) (map[string][]key, error) {
	var ks []int
	for k := minMaxK; k < directMaxK; k++ {
		if k != serveMaxK {
			ks = append(ks, k)
		}
	}
	out := map[string][]key{}
	for _, p := range specPool {
		n := serveMaxK - minMaxK
		if need := (perSpec + p.MaxM - 1) / p.MaxM; need > n {
			n = need
		}
		if n > len(ks) {
			return nil, fmt.Errorf("serve: %d new keys per spec exceed what %s offers; shorten --seconds", perSpec, p.Spec)
		}
		var keys []key
		for m := 1; m <= p.MaxM; m++ {
			for _, k := range ks[:n] {
				keys = append(keys, key{m, k})
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out[p.Spec] = keys
	}
	return out, nil
}

// makeSchedule draws the open loop's requests for the given duration:
// Poisson arrivals at rate, each with its kind from mixBlock and its
// payload. Everything is a function of seed. The arrival count is fixed at
// rate × duration and the times are that many sorted uniform draws — a
// Poisson process conditioned on its count — so every seed offers the
// daemon the same load.
func makeSchedule(seed int64, rate float64, d time.Duration) ([]arrival, error) {
	rng := newRand(seed)
	n := int(math.Round(rate * d.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * float64(d)
	}
	sort.Float64s(times)

	out := make([]arrival, 0, n)
	specs := 0
	var block []string
	for _, t := range times {
		if len(block) == 0 {
			block = append([]string(nil), mixBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		a := arrival{At: time.Duration(t), Kind: block[0], Client: fmt.Sprintf("user-%d", rng.Intn(serveUsers))}
		block = block[1:]
		if a.Kind == kindSpec {
			specs++
		}
		out = append(out, a)
	}

	names := make([]string, len(specPool))
	for i, p := range specPool {
		names[i] = p.Spec
	}
	pool := &cycler{rng: rng, items: names}
	hits := &cycler{rng: rng, items: warmSpecs}
	keys, err := newKeys(rng, (specs+len(specPool)-1)/len(specPool))
	if err != nil {
		return nil, err
	}
	for i := range out {
		a := &out[i]
		switch a.Kind {
		case kindHit:
			a.Spec, a.M, a.MaxK = hits.next(), warmM, serveMaxK
		case kindSpec:
			a.Spec = pool.next()
			k := keys[a.Spec][0]
			keys[a.Spec] = keys[a.Spec][1:]
			a.M, a.MaxK = k.M, k.MaxK
		case kindUpload:
			width := uploadMinWidth + rng.Intn(uploadMaxWidth-uploadMinWidth+1)
			g := genUpload(width, rng.Int63())
			var buf bytes.Buffer
			if err := g.WriteJSON(&buf); err != nil {
				return nil, err
			}
			a.Graph = buf.Bytes()
			a.M, a.MaxK = uploadM, minMaxK+rng.Intn(serveMaxK-minMaxK)
		}
	}
	return out, nil
}

// outcome is what the generator observed for one arrival.
type outcome struct {
	arrival
	Lag       time.Duration // how late the generator started the request against its schedule
	ConnWait  time.Duration // request started → the POST got one of the submit connections
	Submit    time.Duration // POST round trip from the connection on
	Latency   time.Duration // schedule → cached 200, or → job observed done
	Status    int           // POST status
	Cached    bool
	Final     *graphiod.SubmitResponse
	Err       error
	SubmitRet time.Duration // offset of the POST response from the schedule start
	DoneAt    time.Duration // offset at which the job was observed terminal
}

// server is one in-process graphiod plus the clients that drive it:
// submits go through one pool of at most nproc connections and job polls
// through another, so a poll never holds a connection a due submit waits
// for, and any wait for one is the submits' own.
type server struct {
	srv    *graphiod.Server
	base   string
	submit *http.Client
	poll   *http.Client
	dir    string
	// warm maps each warm-up spec to its completed job, whose artifact the
	// cache hits must return.
	warm map[string]*graphiod.SubmitResponse
}

// startServer starts graphiod on loopback over a fresh data dir and
// completes the warm-up jobs the cache hits will repeat.
func startServer(ctx context.Context, work string) (*server, error) {
	dir, err := os.MkdirTemp(work, "graphiod-*")
	if err != nil {
		return nil, err
	}
	srv, err := graphiod.New(graphiod.Config{DataDir: dir, Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	pool := func() *http.Client {
		nproc := runtime.NumCPU()
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	}
	s := &server{
		srv:    srv,
		base:   "http://" + addr,
		submit: pool(),
		poll:   pool(),
		dir:    dir,
		warm:   map[string]*graphiod.SubmitResponse{},
	}
	for _, spec := range warmSpecs {
		o := s.do(ctx, obs.Now(), arrival{Kind: kindSpec, Spec: spec, M: warmM, MaxK: serveMaxK, Client: "warm-up"})
		if o.Err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", spec, o.Err)
		}
		s.warm[spec] = o.Final
	}
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "graphio-bench: graphiod drain: %v\n", err)
	}
	s.srv.Close()
	s.submit.CloseIdleConnections()
	s.poll.CloseIdleConnections()
}

// do sends one request and, unless it was answered from the cache, polls
// the job until it is terminal. Times are measured from sched, the moment
// the request was due. The generator's lag runs until the request starts;
// a wait for one of the submit connections, which only other submits can
// hold, is recorded apart from it and from the POST's own round trip.
func (s *server) do(ctx context.Context, sched time.Time, a arrival) outcome {
	o := outcome{arrival: a, Lag: obs.Since(sched)}
	req := graphiod.JobRequest{M: a.M, MaxK: a.MaxK, Client: a.Client}
	if a.Kind == kindUpload {
		req.Graph = a.Graph
	} else {
		req.Spec = a.Spec
	}
	body, err := json.Marshal(req)
	if err != nil {
		o.Err = err
		return o
	}
	var resp graphiod.SubmitResponse
	var conn time.Time
	o.Status, conn, o.Err = s.call(ctx, s.submit, http.MethodPost, "/v1/jobs", body, &resp)
	if conn.IsZero() {
		conn = obs.Now()
	}
	o.ConnWait = conn.Sub(sched) - o.Lag
	o.Submit = obs.Since(conn)
	o.SubmitRet = obs.Since(sched)
	if o.Err != nil {
		return o
	}
	if o.Status == http.StatusOK {
		o.Cached = resp.Cached
		o.Final = &resp
		o.Latency = obs.Since(sched)
		return o
	}
	deadline := obs.Now().Add(jobWaitLimit)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			o.Err = ctx.Err()
			return o
		case <-tick.C:
		}
		var cur graphiod.SubmitResponse
		st, _, err := s.call(ctx, s.poll, http.MethodGet, "/v1/jobs/"+resp.ID, nil, &cur)
		if err != nil || st != http.StatusOK {
			o.Err = fmt.Errorf("poll %s: status %d: %v", resp.ID, st, err)
			return o
		}
		switch cur.Status {
		case graphiod.StateDone, graphiod.StateFailed, graphiod.StateShed:
			o.Latency = obs.Since(sched)
			o.DoneAt = o.Latency
			o.Final = &cur
			if cur.Status != graphiod.StateDone {
				o.Err = fmt.Errorf("job %s %s: %+v", cur.ID, cur.Status, cur.Error)
			}
			return o
		}
		if obs.Now().After(deadline) {
			o.Err = fmt.Errorf("job %s not done after %v", resp.ID, jobWaitLimit)
			return o
		}
	}
}

// call does one HTTP exchange and decodes a JSON body into out on 2xx. It
// also returns when the request got its connection (zero if it never did).
func (s *server) call(ctx context.Context, client *http.Client, method, path string, body []byte, out interface{}) (int, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var conn time.Time
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { conn = obs.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, conn, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, conn, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, conn, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, conn, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, conn, json.Unmarshal(data, out)
}

// queued counts the daemon's jobs still waiting for a worker.
func (s *server) queued(ctx context.Context) (int, error) {
	var list struct {
		Jobs []graphiod.JobInfo `json:"jobs"`
	}
	if _, _, err := s.call(ctx, s.poll, http.MethodGet, "/v1/jobs", nil, &list); err != nil {
		return 0, err
	}
	n := 0
	for _, j := range list.Jobs {
		if j.Status == graphiod.StateQueued {
			n++
		}
	}
	return n, nil
}

// runServe drives graphiod as an open loop: seeded Poisson arrivals at a
// fixed rate, each request sent when due regardless of earlier ones, each
// timed from when it was due.
func runServe(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult()
	d := time.Duration(cfg.Seconds * float64(time.Second))
	sched, err := makeSchedule(cfg.Seed, serveRate, d)
	if err != nil {
		return nil, err
	}
	// graphiod runs with telemetry on, as cmd/graphiod sets it.
	obs.Enable(true)
	defer obs.Enable(false)

	var s *server
	var setups []float64
	for rep := 0; rep < serveSetupReps; rep++ {
		t := obs.Now()
		s, err = startServer(ctx, cfg.Work)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t))
		if rep < serveSetupReps-1 {
			s.close()
		}
	}
	res.set("setup_s", median(setups), fmt.Sprintf("median of %d graphiod starts + warm-ups", serveSetupReps))

	t := obs.Now()
	outs, backlog, err := openLoop(ctx, s, sched)
	loopWall := since(t)
	s.close()
	if err != nil {
		return nil, err
	}
	positive := checkServe(s, outs, res)
	reportServe(outs, backlog, positive, res)
	if cfg.Trace {
		if err := tracedServe(s, outs, loopWall, res); err != nil {
			return nil, err
		}
	}
	res.set("peak_rss_mb", rssMB(), "")
	return res, nil
}

// openLoop sends every arrival when it is due, waits for all of them, and
// returns their outcomes plus the daemon's queue length when the schedule
// ended.
func openLoop(ctx context.Context, s *server, sched []arrival) ([]outcome, int, error) {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := obs.Now()
	for i, a := range sched {
		due := start.Add(a.At)
		if wait := due.Sub(obs.Now()); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				wg.Wait()
				return nil, 0, ctx.Err()
			case <-timer.C:
			}
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			outs[i] = s.do(ctx, due, a)
		}(i, a)
	}
	backlog, err := s.queued(ctx)
	wg.Wait()
	return outs, backlog, err
}

// checkServe tallies every request: a 429/503, a transport error, a failed
// or shed job, or a wrong answer counts as failed. Each cache hit must
// return its warm-up's artifact SHA; each computed artifact must match a
// direct core.SpectralBound of theorem4 and theorem5 on the same graph at
// the same M and max_k. It returns how many computed artifacts certify a
// positive bound.
func checkServe(s *server, outs []outcome, res *result) int {
	ref := spectra{}
	positive := 0
	for spec, first := range s.warm {
		res.Attempted++
		if ref.checkArtifact(res, "warm-up "+spec, spec, nil, warmM, serveMaxK, first) {
			positive++
		}
	}
	for _, o := range outs {
		res.Attempted++
		if o.Err != nil {
			res.fail("%s %s M=%d: %v", o.Kind, o.Spec, o.M, o.Err)
			continue
		}
		switch o.Kind {
		case kindHit:
			if want := s.warm[o.Spec].ArtifactSHA; !o.Cached || o.Final.ArtifactSHA != want {
				res.fail("hit %s M=%d: cached=%v artifact %s, want cached artifact %s", o.Spec, o.M, o.Cached, o.Final.ArtifactSHA, want)
			}
		default:
			if ref.checkArtifact(res, o.Kind+" "+o.Spec, o.Spec, o.Graph, o.M, o.MaxK, o.Final) {
				positive++
			}
		}
	}
	return positive
}

// spectra caches, per graph, one direct core.SpectralBound per theorem at
// max_k directMaxK. Every serve graph has n ≤ 1024, so core and graphiod
// take the dense path, whose eigenvalues at max_k = h are the first h of
// the full spectrum; an artifact's bound at its own (M, max_k) is then
// core.BoundFromEigenvalues over that prefix, exactly as SpectralBound
// computes it.
type spectra map[string]*direct

type direct struct {
	g   *graph.Graph
	res [2]*core.Result // theorem4, theorem5
}

// checkArtifact compares one artifact with the direct reference and
// reports whether it certifies a positive bound.
func (sp spectra) checkArtifact(res *result, what, spec string, upload []byte, M, maxK int, got *graphiod.SubmitResponse) bool {
	var art graphiod.Artifact
	if err := json.Unmarshal(got.Result, &art); err != nil {
		res.fail("%s: artifact: %v", what, err)
		return false
	}
	key := spec
	if upload != nil {
		key = string(upload)
	}
	d, ok := sp[key]
	if !ok {
		g, err := buildServeGraph(spec, upload)
		if err != nil {
			res.fail("%s: %v", what, err)
			return false
		}
		d = &direct{g: g}
		for i, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			r, err := core.SpectralBound(g, core.Options{M: M, MaxK: directMaxK, Laplacian: kind})
			if err != nil {
				res.fail("%s: direct bound: %v", what, err)
				return false
			}
			if r.SolverUsed != core.SolverDense || len(r.Eigenvalues) != directMaxK {
				res.fail("%s: direct bound took solver %v with %d eigenvalues, want dense with %d", what, r.SolverUsed, len(r.Eigenvalues), directMaxK)
				return false
			}
			d.res[i] = r
		}
		sp[key] = d
	}
	if art.N != d.g.N() || art.M != M || art.MaxK != maxK {
		res.fail("%s: artifact is for n=%d M=%d max_k=%d, want n=%d M=%d max_k=%d", what, art.N, art.M, art.MaxK, d.g.N(), M, maxK)
		return false
	}
	if len(art.Methods) != 2 {
		res.fail("%s: artifact has %d methods, want theorem4 and theorem5", what, len(art.Methods))
		return false
	}
	positive := false
	for i, m := range art.Methods {
		r := d.res[i]
		div := 1.0
		if r.Kind == laplacian.Original {
			div = math.Max(1, float64(d.g.MaxOutDeg()))
		}
		bound, bestK, _ := core.BoundFromEigenvalues(r.Eigenvalues[:maxK], r.N, M, 1, div)
		if m.Error != "" || math.Float64bits(m.Bound) != math.Float64bits(bound) || m.BestK != bestK {
			res.fail("%s M=%d max_k=%d %s: artifact bound %v k %d (%s), direct %v k %d", what, M, maxK, m.Method, m.Bound, m.BestK, m.Error, bound, bestK)
			return false
		}
		positive = positive || bound > 0
	}
	return positive
}

func buildServeGraph(spec string, upload []byte) (*graph.Graph, error) {
	if upload != nil {
		return graph.ReadJSON(bytes.NewReader(upload))
	}
	return graphiod.BuildSpec(spec)
}

// reportServe computes the serve metrics from the outcomes. The gated
// answer_ms is the time graphiod itself spends on a request that needs a
// new bound — the POST round trip plus the job's wall_ms, queue wait left
// out — as the mean over the request classes (each pool spec, and uploads)
// of each class's median: queueing at a half-busy worker amplifies every
// slow spell of the host, and a median over the whole mix would jump
// between the classes' job times. The queue-inclusive latencies are
// per-layer metrics.
func reportServe(outs []outcome, backlog, positive int, res *result) {
	var hit, miss, lag, connWait, subHit, subMiss, wall, wait []float64
	service := map[string][]float64{}
	rejected, shed, cached := 0, 0, 0
	for _, o := range outs {
		lag = append(lag, ms(o.Lag))
		connWait = append(connWait, ms(o.ConnWait))
		if o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable {
			rejected++
		}
		if o.Final != nil && o.Final.Status == graphiod.StateShed {
			shed++
		}
		if o.Cached {
			cached++
		}
		if o.Err != nil {
			continue
		}
		if o.Kind == kindHit {
			hit = append(hit, ms(o.Latency))
			subHit = append(subHit, ms(o.Submit))
			continue
		}
		miss = append(miss, ms(o.Latency))
		subMiss = append(subMiss, ms(o.Submit))
		if !o.Cached {
			class := o.Spec
			if o.Kind == kindUpload {
				class = kindUpload
			}
			service[class] = append(service[class], ms(o.Submit)+float64(o.Final.WallMS))
			wall = append(wall, float64(o.Final.WallMS))
			wait = append(wait, ms(o.DoneAt-o.SubmitRet)-float64(o.Final.WallMS))
		}
	}
	var classMedians []float64
	for _, class := range sortedKeys(service) {
		classMedians = append(classMedians, median(service[class]))
	}
	svc := sum(classMedians) / math.Max(1, float64(len(classMedians)))
	res.set("answer_ms", svc, fmt.Sprintf("= serve.service_ms; %d new-bound requests, %d certify a positive bound", len(miss), positive))
	res.set("serve.service_ms", svc, fmt.Sprintf("POST round trip + wall_ms, mean of %d class medians", len(classMedians)))
	m99 := tailAt(miss, 99)
	res.set("serve.miss_ms.p50", median(miss), fmt.Sprintf("median of %d; poll interval %v", len(miss), pollInterval))
	res.set("serve.miss_ms.p99", m99.Value, m99.String())
	h99 := tailAt(hit, 99)
	res.set("serve.hit_ms.p50", median(hit), fmt.Sprintf("median of %d", len(hit)))
	res.set("serve.hit_ms.p99", h99.Value, h99.String())
	res.set("graphiod.submit_ms.hit", median(subHit), "median POST /v1/jobs round trip")
	res.set("graphiod.submit_ms.miss", median(subMiss), "median POST /v1/jobs round trip")
	res.set("graphiod.job_wall_ms.p50", median(wall), "JobInfo.wall_ms")
	w99 := tailAt(wait, 99)
	res.set("graphiod.queue_wait_ms.p50", median(wait), "done observed − submit returned − wall_ms")
	res.set("graphiod.queue_wait_ms.p99", w99.Value, w99.String())
	res.set("graphiod.hit_ratio", float64(cached)/float64(len(outs)), "cached 200s ÷ submits")
	res.set("graphiod.rejected_frac", float64(rejected)/float64(len(outs)), fmt.Sprintf("%d 429/503 and %d shed jobs of %d submits", rejected, shed, len(outs)))
	l99, c99 := tailAt(lag, 99), tailAt(connWait, 99)
	res.set("serve.conn_wait_ms.p99", c99.Value, c99.String()+": due submit waiting for one of its connections")
	res.set("serve.gen_lag_ms.p99", l99.Value, l99.String())
	res.set("serve.backlog_end", float64(backlog), "jobs queued when the schedule ended")
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "")
	if l99.Value > ms(maxGenLagP99) {
		res.Invalid = fmt.Sprintf("generator lag %s = %.1f ms exceeds %v", l99, l99.Value, maxGenLagP99)
	}
	if backlog > maxBacklogEnd {
		res.Invalid = fmt.Sprintf("%d jobs still queued at the end, over %d", backlog, maxBacklogEnd)
	}
	fmt.Fprintf(os.Stderr, "graphio-bench: serve: %d requests (%d hits, %d new, %d positive bounds), workers busy %.0f%%\n",
		len(outs), len(hit), len(miss), positive, 100*sum(wall)/1e3/(serveWorkers*spanOf(outs).Seconds()))
}

// tracedServe adds the serve layers the open loop cannot see from outside:
// graph generation and upload parsing for the run's own inputs, and the
// persist journal's append latency on the data dir's filesystem.
func tracedServe(s *server, outs []outcome, loopWall float64, res *result) error {
	start := obs.Now()
	specs := map[string]bool{}
	var reads []float64
	for _, o := range outs {
		switch o.Kind {
		case kindSpec:
			specs[o.Spec] = true
		case kindUpload:
			t := obs.Now()
			if _, err := graph.ReadJSON(bytes.NewReader(o.Graph)); err != nil {
				return err
			}
			reads = append(reads, ms(obs.Since(t)))
		}
	}
	var names []string
	for spec := range specs {
		names = append(names, spec)
	}
	sort.Strings(names)
	var build float64
	for _, spec := range names {
		var ts []float64
		for i := 0; i < 3; i++ {
			t := obs.Now()
			if _, err := graphiod.BuildSpec(spec); err != nil {
				return err
			}
			ts = append(ts, ms(obs.Since(t)))
		}
		build += median(ts)
	}
	res.set("gen.build_ms.serve_specs", build, fmt.Sprintf("Σ median graphiod.BuildSpec over %d specs", len(names)))
	res.set("graph.read_json_ms", median(reads), fmt.Sprintf("median graph.ReadJSON over %d uploads", len(reads)))
	p50, p99, err := appendLatency(filepath.Dir(s.dir))
	if err != nil {
		return err
	}
	res.set("persist.append_us.p50", p50.Value, p50.String())
	res.set("persist.append_us.p99", p99.Value, p99.String())
	// The open loop is the same traced or not (the generator keeps its
	// per-request timestamps either way); what tracing adds is the layer
	// measurements above, taken after the loop.
	extra := since(start)
	res.set("trace.overhead_frac", extra/loopWall, fmt.Sprintf("%.3fs of layer measurements after a %.3fs open loop", extra, loopWall))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanOf is the schedule's length: the last arrival's offset.
func spanOf(outs []outcome) time.Duration {
	if len(outs) == 0 {
		return time.Second
	}
	return outs[len(outs)-1].At
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// genUpload is the graph an upload request carries: a seeded layered DAG
// small enough for a dense solve.
func genUpload(width int, seed int64) *graph.Graph {
	return gen.RandomLayeredDAG(uploadLayers, width, uploadMaxIn, seed)
}
