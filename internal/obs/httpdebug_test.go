package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"linalg.matvecs":     "linalg_matvecs",
		"span.core/eigens":   "span_core_eigens",
		"already_clean":      "already_clean",
		"9starts.with.digit": "_9starts_with_digit",
		"dash-and space":     "dash_and_space",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusFormat checks each metric family renders in the text
// exposition format: a TYPE line, then samples whose names match the
// Prometheus charset and whose label syntax is well-formed.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Add("linalg.matvecs", 42)
	r.SetGauge("wall_seconds", 1.5)
	r.Observe("span.core", 40*time.Millisecond)
	for i := int64(1); i <= 100; i++ {
		r.ObserveHist("core.boundk_ns", i)
	}
	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	out := b.String()

	for _, want := range []string{
		"# TYPE linalg_matvecs counter\nlinalg_matvecs 42\n",
		"# TYPE wall_seconds gauge\nwall_seconds 1.5\n",
		"# TYPE span_core_ns summary\nspan_core_ns_sum 40000000\nspan_core_ns_count 1\n",
		"# TYPE core_boundk_ns histogram\n",
		"core_boundk_ns_bucket{le=\"2\"} 1\n",
		"core_boundk_ns_bucket{le=\"4\"} 3\n",
		"core_boundk_ns_bucket{le=\"64\"} 63\n",
		"core_boundk_ns_bucket{le=\"128\"} 100\n",
		"core_boundk_ns_bucket{le=\"+Inf\"} 100\n",
		"core_boundk_ns_sum 5050\ncore_boundk_ns_count 100\n",
		"# TYPE core_boundk_ns_p50 gauge\n",
		"# TYPE core_boundk_ns_p99 gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be `name value` or `name{labels} value`.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	Reset()
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	unscoped.Inc("debug.test.counter")
	unscoped.ObserveHist("debug.test.lat_ns", 1500)

	stop, addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{"debug_test_counter 1", "# TYPE debug_test_lat_ns histogram", "debug_test_lat_ns_bucket{le=\"+Inf\"} 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	sp := startSpan("live.phase")
	code, body = get("/progress")
	sp.End()
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	var snap progressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not valid JSON: %v\n%s", err, body)
	}
	if !snap.MetricsEnabled {
		t.Error("/progress reports metrics disabled")
	}
	found := false
	for _, o := range snap.OpenSpans {
		if o.Name == "live.phase" {
			found = true
			if o.Goroutine <= 0 {
				t.Errorf("open span missing goroutine id: %+v", o)
			}
		}
	}
	if !found {
		t.Errorf("/progress missing open span live.phase: %s", body)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get("/"); code != http.StatusOK {
		t.Errorf("/ status = %d", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", code)
	}

	// Stop must be idempotent and actually shut the listener down.
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still answering after stop")
	}
}

// The /metrics handler has to work through an httptest recorder too — the
// exact round-trip the satellite checklist names.
func TestMetricsHandlerHTTPTest(t *testing.T) {
	Reset()
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	unscoped.Add("rt.counter", 7)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	handleMetrics(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), fmt.Sprintf("rt_counter %d", 7)) {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestMetricsHistogramBucketsHTTPTest scrapes /metrics through httptest
// and checks the histogram exposition is internally consistent: bucket
// counts are cumulative (monotone non-decreasing in le order) and the
// +Inf bucket equals _count, with the p50/p90/p99 gauges present.
func TestMetricsHistogramBucketsHTTPTest(t *testing.T) {
	Reset()
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	for i := int64(1); i <= 1000; i++ {
		unscoped.ObserveHist("rt.lat_ns", i*i)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	handleMetrics(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()

	var last int64 = -1
	buckets := 0
	var infCount, count int64 = -1, -1
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "rt_lat_ns_bucket{le=\"+Inf\"} "):
			fmt.Sscanf(line, "rt_lat_ns_bucket{le=\"+Inf\"} %d", &infCount)
		case strings.HasPrefix(line, "rt_lat_ns_bucket{"):
			var c int64
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("malformed bucket line %q", line)
			}
			fmt.Sscanf(fields[1], "%d", &c)
			if c < last {
				t.Errorf("bucket counts not cumulative: %q after %d", line, last)
			}
			last = c
			buckets++
		case strings.HasPrefix(line, "rt_lat_ns_count "):
			fmt.Sscanf(line, "rt_lat_ns_count %d", &count)
		}
	}
	if buckets < 5 {
		t.Errorf("only %d finite buckets exported", buckets)
	}
	if count != 1000 || infCount != count {
		t.Errorf("le=\"+Inf\" bucket %d != _count %d (want 1000)", infCount, count)
	}
	for _, q := range []string{"rt_lat_ns_p50 ", "rt_lat_ns_p90 ", "rt_lat_ns_p99 "} {
		if !strings.Contains(body, q) {
			t.Errorf("missing quantile gauge %q", q)
		}
	}
}

// TestProgressUnderSpanChurn hammers /progress while goroutines open and
// close spans — the race the open-span table exists to survive. Run with
// -race this is the satellite's concurrency check.
func TestProgressUnderSpanChurn(t *testing.T) {
	// No Reset() here: this test reads no counters, and a destructive global
	// reset would race with any parallel test emitting into the default
	// registry. The span churn below tolerates whatever state is live.
	Enable(true)
	defer Enable(false)
	SetSweepStatus(func() (SweepStatus, bool) {
		return SweepStatus{Total: 10, Done: 3, Current: "fig7_fft", ETAKnown: true, ETANS: 42}, true
	})
	defer SetSweepStatus(nil)
	stop, addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	done := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sp := startSpan("churn.phase")
				sp.Child("inner").End()
				sp.End()
			}
		}(g)
	}
	var gets sync.WaitGroup
	for g := 0; g < 4; g++ {
		gets.Add(1)
		go func() {
			defer gets.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get("http://" + addr + "/progress")
				if err != nil {
					t.Errorf("GET /progress: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var snap progressSnapshot
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Errorf("/progress not valid JSON under churn: %v", err)
					return
				}
				if snap.Sweep == nil || snap.Sweep.Total != 10 || snap.Sweep.Current != "fig7_fft" {
					t.Errorf("/progress sweep status = %+v", snap.Sweep)
					return
				}
			}
		}()
	}
	gets.Wait()
	close(done)
	churn.Wait()
}
