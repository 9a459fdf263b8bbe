package main

import (
	"fmt"

	"graphio/internal/experiments"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run reports, for every workload; each
// workload gives answer_ms its own meaning (README.md): query-*: the time
// to answer the query mix once; serve: graphiod's own time on a request
// that needs a new bound (POST round trip + job wall time); sweep: one
// quick sweep.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"answer_ms", "ms"},
}

// extraMetrics are printed in the table but are not in the JSON result:
// the workload-specific names of answer_ms (mix_s is it in seconds on
// query-*, and so on), failed_frac, which is 0 on a correct run, and
// peak_rss_mb, whose run-to-run spread on the sweep (GC timing moves its
// peak by a quarter) is too wide to gate on.
var extraMetrics = []metricDef{
	{"failed_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"mix_s", "s"},
	{"sweep_s", "s"},
	{"serve.service_ms", "ms"},
	{"mix_pass_s.median", "s"},
}

// perLayer is what a traced run reports, for every workload. A layer the
// workload never calls reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	for _, mix := range [][]query{denseMix, sparseMix} {
		for _, q := range mix {
			add("gen.build_ms."+q.Name, "ms")
		}
	}
	add("gen.build_ms.serve_specs", "ms")
	add("graph.read_json_ms", "ms")
	add("laplacian.dense_ms", "ms")
	add("laplacian.csr_ms", "ms")
	add("linalg.dense_eig_s", "s")
	add("linalg.dense_gflops", "GFLOP/s")
	add("linalg.cheb_s", "s")
	add("linalg.matvecs", "count")
	add("linalg.matvec_busy_s", "s")
	add("linalg.matvec_gbps", "GB/s")
	add("linalg.cheb.matvec_wall_s", "s")
	add("linalg.cheb.rest_s", "s")
	add("linalg.cheb.sweeps", "count")
	add("linalg.cheb.block_growths", "count")
	add("linalg.cheb.padded_tail", "count")
	for _, mix := range [][]query{denseMix, sparseMix} {
		for _, q := range mix {
			add("core.bound_s."+q.Name, "s")
		}
	}
	add("core.ksweep_us", "us")
	add("obs.metrics_overhead_frac", "ratio")
	add("obs.events_overhead_frac", "ratio")
	add("serve.miss_ms.p50", "ms")
	add("serve.miss_ms.p99", "ms")
	add("serve.hit_ms.p50", "ms")
	add("serve.hit_ms.p99", "ms")
	add("graphiod.submit_ms.hit", "ms")
	add("graphiod.submit_ms.miss", "ms")
	add("graphiod.job_wall_ms.p50", "ms")
	add("graphiod.queue_wait_ms.p50", "ms")
	add("graphiod.queue_wait_ms.p99", "ms")
	add("graphiod.hit_ratio", "ratio")
	add("graphiod.rejected_frac", "ratio")
	add("persist.append_us.p50", "us")
	add("persist.append_us.p99", "us")
	for _, r := range experiments.Runners() {
		add(runnerMetric(r.Name), "s")
	}
	add("experiments.persist_s", "s")
	add("serve.gen_lag_ms.p99", "ms")
	add("serve.conn_wait_ms.p99", "ms")
	add("serve.backlog_end", "count")
	add("trace.overhead_frac", "ratio")
	return defs
}

func runnerMetric(name string) string { return fmt.Sprintf("experiments.%s_s", name) }

// lookup finds name in defs.
func lookup(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// unitOf returns the unit of any metric the benchmark knows.
func unitOf(name string) (string, bool) {
	for _, defs := range [][]metricDef{endToEnd, extraMetrics, perLayer} {
		if d := lookup(defs, name); d != nil {
			return d.Unit, true
		}
	}
	return "", false
}
