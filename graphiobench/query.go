package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
	"graphio/internal/persist"
)

// query is one entry of a query mix: a graph, how to build it from the
// workload seed, and the fast-memory size M it is bounded at.
type query struct {
	Name   string // metric-safe name, e.g. "fft7"
	Label  string // what the graph is, e.g. "fft:7"
	M      int
	Seeded bool // the graph depends on the workload seed
	Build  func(seed int64) *graph.Graph
}

// erP is the edge probability of the dense mix's Erdős–Rényi DAG:
// 12·ln(512)/511, the connectivity regime of the paper's §5.3 ER table.
const erP = 12 * 6.24 / 511

// denseMix has only graphs with n ≤ 1024, so core's default options take
// the dense SymEigValues path (tred2 + tql2) and the Chebyshev code never
// runs. fft:7 at M=16 certifies nothing (bound 0), which keeps the k-sweep's
// clamp honest.
var denseMix = []query{
	{"fft7", "fft:7", 16, false, func(int64) *graph.Graph { return gen.FFT(7) }},
	{"bhk10", "bhk:10", 16, false, func(int64) *graph.Graph { return gen.BellmanHeldKarp(10) }},
	{"matmul8", "matmul:8", 32, false, func(int64) *graph.Graph { return gen.NaiveMatMulNary(8) }},
	{"er512", "ErdosRenyiDAG(512, 12*6.24/511)", 4, true, func(s int64) *graph.Graph { return gen.ErdosRenyiDAG(512, erP, s) }},
}

// sparseMix has only graphs with n > 1024, so core takes the Chebyshev
// path: CSR matvecs, block orthonormalisation and Rayleigh–Ritz dominate.
// The maximising k is 3–8 on the structured graphs against h=100, which is
// what bound-aware stopping would exploit; matmul:10 at M=32 has bound 0
// and the irregular layered DAG peaks near k=40, so gains must hold beyond
// butterflies and hypercubes.
var sparseMix = []query{
	{"fft9", "fft:9", 4, false, func(int64) *graph.Graph { return gen.FFT(9) }},
	{"bhk11", "bhk:11", 16, false, func(int64) *graph.Graph { return gen.BellmanHeldKarp(11) }},
	{"strassen8", "strassen:8", 8, false, func(int64) *graph.Graph { return gen.Strassen(8) }},
	{"matmul10", "matmul:10", 32, false, func(int64) *graph.Graph { return gen.NaiveMatMulNary(10) }},
	{"layered40x64", "RandomLayeredDAG(40, 64, 3)", 2, true, func(s int64) *graph.Graph { return gen.RandomLayeredDAG(40, 64, 3, s) }},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 21

// answer is what a query returns and what the reference table stores: the
// bound at the precision specio prints it, and the maximising k exactly.
type answer struct {
	Bound string `json:"bound"`
	BestK int    `json:"best_k"`
}

func answerOf(bound float64, bestK int) answer {
	return answer{Bound: strconv.FormatFloat(bound, 'f', 4, 64), BestK: bestK}
}

// queryRef holds the answers of the code the benchmark was written
// against: fixed graphs under their name, seeded graphs under
// "<name>@<seed>" for seeds 1..refSeeds.
//
//go:embed testdata/query_ref.json
var queryRefJSON []byte

const refSeeds = 64

func refKey(q query, seed int64) string {
	if q.Seeded {
		return fmt.Sprintf("%s@%d", q.Name, seed)
	}
	return q.Name
}

// checker compares answers against the reference table. A seeded graph
// whose seed is outside the table is checked for repeatability instead:
// every pass of the run must give the first pass's answer.
type checker struct {
	ref  map[string]answer
	seen map[string]answer
	res  *result
}

func newChecker(res *result) (*checker, error) {
	c := &checker{ref: map[string]answer{}, seen: map[string]answer{}, res: res}
	if err := json.Unmarshal(queryRefJSON, &c.ref); err != nil {
		return nil, fmt.Errorf("query reference table: %w", err)
	}
	return c, nil
}

func (c *checker) check(q query, seed int64, got answer) {
	c.res.Attempted++
	key := refKey(q, seed)
	want, ok := c.ref[key]
	if !ok {
		if !q.Seeded {
			c.res.fail("%s: no reference answer", key)
			return
		}
		if want, ok = c.seen[key]; !ok {
			c.seen[key] = got
			return
		}
	}
	if got != want {
		c.res.fail("%s (%s, M=%d): got bound %s best_k %d, want bound %s best_k %d",
			key, q.Label, q.M, got.Bound, got.BestK, want.Bound, want.BestK)
	}
}

// buildMix builds every graph of the mix, returning the graphs and each
// build's wall time in seconds.
func buildMix(mix []query, seed int64) ([]*graph.Graph, []float64) {
	gs := make([]*graph.Graph, len(mix))
	ts := make([]float64, len(mix))
	for i, q := range mix {
		t := obs.Now()
		gs[i] = q.Build(seed)
		ts[i] = since(t)
	}
	return gs, ts
}

// setupMix repeats the mix's set-up setupReps times and keeps the last
// graphs; it returns the median set-up time and each graph's median build
// time in seconds.
func setupMix(mix []query, seed int64) ([]*graph.Graph, float64, []float64) {
	var gs []*graph.Graph
	var totals []float64
	per := make([][]float64, len(mix))
	for rep := 0; rep < setupReps; rep++ {
		t := obs.Now()
		var ts []float64
		gs, ts = buildMix(mix, seed)
		totals = append(totals, since(t))
		for i, v := range ts {
			per[i] = append(per[i], v)
		}
	}
	return gs, median(totals), medians(per)
}

// boundPass answers every query of the mix once through core.SpectralBound
// with default options, checking each answer. It returns the pass's wall
// time and each query's time, in seconds, plus the raw results.
func boundPass(ctx context.Context, mix []query, gs []*graph.Graph, seed int64, chk *checker) (float64, []float64, []*core.Result, error) {
	per := make([]float64, len(mix))
	out := make([]*core.Result, len(mix))
	start := obs.Now()
	for i, q := range mix {
		t := obs.Now()
		r, err := core.SpectralBoundContext(ctx, gs[i], core.Options{M: q.M})
		per[i] = since(t)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("%s: %w", q.Label, err)
		}
		chk.check(q, seed, answerOf(r.Bound, r.BestK))
		out[i] = r
	}
	return since(start), per, out, nil
}

func runQuery(ctx context.Context, cfg runConfig, mix []query) (*result, error) {
	res := newResult()
	chk, err := newChecker(res)
	if err != nil {
		return nil, err
	}
	gs, setup, builds := setupMix(mix, cfg.Seed)
	if cfg.Trace {
		setPerGraph(res, "gen.build_ms.", mix, builds, 1e3)
		return res, tracedQuery(ctx, mix, gs, cfg.Seed, chk, res)
	}
	res.set("setup_s", setup, fmt.Sprintf("median of %d graph-set builds", setupReps))

	// Closed loop, one caller: passes run back to back until the next one
	// would overrun the budget (at least minPasses). The mix time is the sum
	// over its graphs of each graph's median time: a slow spell on the
	// machine then costs the one query it hits, not the whole pass.
	var walls []float64
	per := make([][]float64, len(mix))
	start := obs.Now()
	for {
		w, ts, _, err := boundPass(ctx, mix, gs, cfg.Seed, chk)
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
		for i, t := range ts {
			per[i] = append(per[i], t)
		}
		if len(walls) >= minPasses && since(start)+median(walls) > cfg.Seconds {
			break
		}
	}
	meds := medians(per)
	mixS := sum(meds)
	setPerGraph(res, "core.bound_s.", mix, meds, 1)
	res.set("answer_ms", mixS*1e3, fmt.Sprintf("Σ per-graph median over %d mix passes", len(walls)))
	res.set("mix_s", mixS, "= answer_ms")
	res.set("mix_pass_s.median", median(walls), fmt.Sprintf("median of %d whole-pass wall times", len(walls)))
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "")
	res.set("peak_rss_mb", rssMB(), "")
	return res, nil
}

// tracedQuery runs the mix four ways, each once: plain (the reference wall
// time and the per-graph core.SpectralBound times), decomposed into its
// layers, with obs metrics on, and with obs events on. The decomposed pass
// must reproduce the plain pass's Bound and BestK bit for bit, and its
// matvec and Chebyshev counts must equal those core reports with metrics on.
func tracedQuery(ctx context.Context, mix []query, gs []*graph.Graph, seed int64, chk *checker, res *result) error {
	plainWall, per, plain, err := boundPass(ctx, mix, gs, seed, chk)
	if err != nil {
		return err
	}
	setPerGraph(res, "core.bound_s.", mix, per, 1)

	lt := &layerTimes{}
	start := obs.Now()
	for i, q := range mix {
		bound, bestK, err := lt.decomposed(ctx, gs[i], q.M)
		if err != nil {
			return fmt.Errorf("%s: decomposed pipeline: %w", q.Label, err)
		}
		res.Attempted++
		if math.Float64bits(bound) != math.Float64bits(plain[i].Bound) || bestK != plain[i].BestK {
			res.fail("%s: layer pipeline gave bound %v k %d, core.SpectralBound gave %v k %d",
				q.Label, bound, bestK, plain[i].Bound, plain[i].BestK)
		}
	}
	tracedWall := since(start)
	lt.report(res)
	res.set("trace.overhead_frac", tracedWall/plainWall-1, fmt.Sprintf("layer pipeline %.3fs vs core.SpectralBound %.3fs", tracedWall, plainWall))

	// Metrics on, as graphiod runs: core counts matvecs and Chebyshev
	// sweeps into the scope, which must match the decomposed pass.
	scope := obs.NewScope("graphio-bench")
	obs.Enable(true)
	metricsWall, _, _, err := boundPass(obs.WithScope(ctx, scope), mix, gs, seed, chk)
	obs.Enable(false)
	scope.Close()
	if err != nil {
		return err
	}
	res.set("obs.metrics_overhead_frac", metricsWall/plainWall-1, fmt.Sprintf("%.3fs with obs.Enable(true) vs %.3fs off", metricsWall, plainWall))
	sameCount(res, "linalg.matvecs", lt.matvecs, scope.Counter("linalg.matvecs"))
	sameCount(res, "linalg.cheb.sweeps", lt.sweeps, scope.Counter("linalg.cheb.sweeps"))
	sameCount(res, "linalg.cheb.block_growths", lt.growths, scope.Counter("linalg.cheb.block_growths"))
	sameCount(res, "linalg.cheb.padded_tail", lt.padded, scope.Counter("linalg.cheb.padded_tail"))

	obs.StartEvents()
	eventsWall, _, _, err := boundPass(ctx, mix, gs, seed, chk)
	obs.StopEvents()
	obs.ResetEvents()
	if err != nil {
		return err
	}
	res.set("obs.events_overhead_frac", eventsWall/plainWall-1, fmt.Sprintf("%.3fs with obs.StartEvents() vs %.3fs off", eventsWall, plainWall))
	return nil
}

// setPerGraph records vals[i]·scale as prefix + the i-th graph's name.
func setPerGraph(res *result, prefix string, mix []query, vals []float64, scale float64) {
	for i, q := range mix {
		res.set(prefix+q.Name, vals[i]*scale, q.Label)
	}
}

// sameCount checks that a count the layer pipeline took equals the one
// core reported for the same computation.
func sameCount(res *result, name string, layers, core int64) {
	res.Attempted++
	if layers != core {
		res.fail("count %s did not repeat: %d in the layer pipeline, %d from core with metrics on", name, layers, core)
	}
}

// layerTimes accumulates the decomposed pipeline's per-layer costs over
// one pass of a mix.
type layerTimes struct {
	denseLap, denseEig, denseFlops float64
	csrLap, cheb, ksweep           float64
	matvecs                        int64
	busy, inflightWall, bytes      float64
	sweeps, growths, padded        int64
}

// decomposed recomputes core.SpectralBound's default Theorem 4 answer from
// its layers, timing each: BuildDense → SymEigValues on the dense path and
// BuildCSR → GershgorinUpper → ChebFilteredSmallest on the sparse path,
// then the same clamp and BoundFromEigenvalues core applies. It mirrors
// core's defaults (h = 100, dense at n ≤ 1024).
func (lt *layerTimes) decomposed(ctx context.Context, g *graph.Graph, M int) (float64, int, error) {
	const h, denseCutoff = 100, 1024
	n := g.N()
	kh := h
	if kh > n {
		kh = n
	}
	var lambda []float64
	if n <= denseCutoff {
		t := obs.Now()
		L := laplacian.BuildDense(g, laplacian.OutDegreeNormalized)
		lt.denseLap += since(t)
		t = obs.Now()
		vals, err := linalg.SymEigValues(L)
		d := since(t)
		if err != nil {
			return 0, 0, err
		}
		lt.denseEig += d
		lt.denseFlops += 4 * math.Pow(float64(n), 3) / 3
		lambda = vals[:kh]
	} else {
		t := obs.Now()
		L, err := laplacian.BuildCSR(g, laplacian.OutDegreeNormalized)
		if err != nil {
			return 0, 0, err
		}
		c := L.GershgorinUpper()
		lt.csrLap += since(t)

		op := &tracedOp{A: L}
		// Chebyshev's sweep counters are emitted only with metrics on; they
		// are reported once per solve, so this costs the solve nothing.
		scope := obs.NewScope("graphio-bench-cheb")
		obs.Enable(true)
		t = obs.Now()
		vals, err := linalg.ChebFilteredSmallestContext(obs.WithScope(ctx, scope), op, c, kh, nil)
		d := since(t)
		obs.Enable(false)
		scope.Close()
		if err != nil {
			return 0, 0, err
		}
		lt.cheb += d
		lt.matvecs += op.count
		lt.busy += op.busy.Seconds()
		lt.inflightWall += op.wall.Seconds()
		lt.bytes += float64(op.count) * csrBytes(L)
		lt.sweeps += scope.Counter("linalg.cheb.sweeps")
		lt.growths += scope.Counter("linalg.cheb.block_growths")
		lt.padded += scope.Counter("linalg.cheb.padded_tail")
		if err := linalg.CheckFinite("eigensolve output", vals); err != nil {
			return 0, 0, err
		}
		lambda = vals
	}
	for i, l := range lambda {
		if l < 0 {
			lambda[i] = 0
		}
	}
	t := obs.Now()
	bound, bestK, _ := core.BoundFromEigenvalues(lambda, n, M, 1, 1)
	lt.ksweep += since(t)
	return bound, bestK, nil
}

// csrBytes is the compulsory memory traffic of one CSR matvec: values and
// column indices once, the row pointers, and one read of src plus one write
// of dst.
func csrBytes(L *linalg.CSR) float64 {
	nnz := float64(L.NNZ())
	n := float64(L.N)
	return nnz*(8+4) + (n+1)*4 + 2*n*8
}

func (lt *layerTimes) report(res *result) {
	res.set("laplacian.dense_ms", lt.denseLap*1e3, "laplacian.BuildDense")
	res.set("laplacian.csr_ms", lt.csrLap*1e3, "laplacian.BuildCSR + GershgorinUpper")
	res.set("linalg.dense_eig_s", lt.denseEig, "linalg.SymEigValues")
	if lt.denseEig > 0 {
		res.set("linalg.dense_gflops", lt.denseFlops/lt.denseEig/1e9, "computed: 4n³/3 ÷ dense_eig_s")
	}
	res.set("linalg.cheb_s", lt.cheb, "linalg.ChebFilteredSmallest, default options")
	res.set("linalg.matvecs", float64(lt.matvecs), "benchmark's counting Operator")
	res.set("linalg.matvec_busy_s", lt.busy, "summed in-MatVec time across goroutines")
	if lt.busy > 0 {
		res.set("linalg.matvec_gbps", lt.bytes/lt.busy/1e9, "computed: CSR bytes per matvec × count ÷ busy time")
	}
	res.set("linalg.cheb.matvec_wall_s", lt.inflightWall, "wall time with ≥1 MatVec in flight")
	res.set("linalg.cheb.rest_s", lt.cheb-lt.inflightWall, "cheb_s − matvec_wall_s: orthonormalisation, Rayleigh–Ritz, residuals")
	res.set("linalg.cheb.sweeps", float64(lt.sweeps), "obs counter")
	res.set("linalg.cheb.block_growths", float64(lt.growths), "obs counter")
	res.set("linalg.cheb.padded_tail", float64(lt.padded), "obs counter")
	res.set("core.ksweep_us", lt.ksweep*1e6, "core.BoundFromEigenvalues")
}

// tracedOp is the benchmark's own linalg.Operator wrapper: it counts
// matvecs, sums the time spent inside them across goroutines, and measures
// the wall time during which at least one is in flight.
type tracedOp struct {
	A linalg.Operator

	mu       sync.Mutex
	count    int64
	busy     time.Duration
	wall     time.Duration
	inflight int
	since    time.Time
}

func (o *tracedOp) Dim() int { return o.A.Dim() }

func (o *tracedOp) MatVec(dst, src []float64) {
	o.mu.Lock()
	start := obs.Now()
	if o.inflight == 0 {
		o.since = start
	}
	o.inflight++
	o.count++
	o.mu.Unlock()

	o.A.MatVec(dst, src)

	o.mu.Lock()
	end := obs.Now()
	o.busy += end.Sub(start)
	o.inflight--
	if o.inflight == 0 {
		o.wall += end.Sub(o.since)
	}
	o.mu.Unlock()
}

// captureQueryRef computes the reference answers of both mixes, seeded
// graphs for seeds 1..refSeeds, and writes them as JSON to path.
func captureQueryRef(path string) error {
	ref := map[string]answer{}
	for _, mix := range [][]query{denseMix, sparseMix} {
		for _, q := range mix {
			seeds := []int64{1}
			if q.Seeded {
				seeds = seeds[:0]
				for s := int64(1); s <= refSeeds; s++ {
					seeds = append(seeds, s)
				}
			}
			for _, s := range seeds {
				r, err := core.SpectralBound(q.Build(s), core.Options{M: q.M})
				if err != nil {
					return fmt.Errorf("%s: %w", refKey(q, s), err)
				}
				ref[refKey(q, s)] = answerOf(r.Bound, r.BestK)
				fmt.Fprintf(os.Stderr, "%s: bound %.4f best_k %d n %d\n", refKey(q, s), r.Bound, r.BestK, r.N)
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}
