package shard

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/promtext"
)

// worker0Metrics / worker1Metrics are canned worker scrapes covering
// every merge rule: counter sum, gauge sum vs the high-water max, and
// bucket-wise histogram merge over sparse bounds — a latency histogram
// and a phase duration (serve_compile_ns: 10 and 50 ns on worker 0; 5,
// 40 and 80 ns on worker 1).
const worker0Metrics = `# TYPE serve_requests_sweep_total counter
serve_requests_sweep_total 3
# TYPE serve_inflight gauge
serve_inflight 1
# TYPE serve_inflight_high gauge
serve_inflight_high 4
# TYPE serve_compile_ns histogram
serve_compile_ns_bucket{le="16"} 1
serve_compile_ns_bucket{le="64"} 2
serve_compile_ns_bucket{le="+Inf"} 2
serve_compile_ns_sum 60
serve_compile_ns_count 2
# TYPE serve_latency_ns_sweep histogram
serve_latency_ns_sweep_bucket{le="1024"} 2
serve_latency_ns_sweep_bucket{le="+Inf"} 3
serve_latency_ns_sweep_sum 5000
serve_latency_ns_sweep_count 3
`

const worker1Metrics = `# TYPE serve_requests_sweep_total counter
serve_requests_sweep_total 4
# TYPE serve_inflight gauge
serve_inflight 2
# TYPE serve_inflight_high gauge
serve_inflight_high 3
# TYPE serve_compile_ns histogram
serve_compile_ns_bucket{le="8"} 1
serve_compile_ns_bucket{le="64"} 2
serve_compile_ns_bucket{le="128"} 3
serve_compile_ns_bucket{le="+Inf"} 3
serve_compile_ns_sum 125
serve_compile_ns_count 3
# TYPE serve_latency_ns_sweep histogram
serve_latency_ns_sweep_bucket{le="2048"} 1
serve_latency_ns_sweep_bucket{le="+Inf"} 2
serve_latency_ns_sweep_sum 7000
serve_latency_ns_sweep_count 2
`

// fleetScrape runs GET /v1/metrics?fleet=1 and returns the parsed,
// validated exposition.
func fleetScrape(t *testing.T, rt *Router) *promtext.Metrics {
	t.Helper()
	w := do(t, rt, http.MethodGet, "/v1/metrics?fleet=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("fleet scrape = %d: %s", w.Code, w.Body.String())
	}
	m, err := promtext.Parse(w.Body.String())
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v\n%s", err, w.Body.String())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("fleet exposition invalid: %v\n%s", err, w.Body.String())
	}
	return m
}

func TestRouterFleetMetricsMerge(t *testing.T) {
	a := newFakeWorker(t, 0)
	a.metricsText = worker0Metrics
	b := newFakeWorker(t, 1)
	b.metricsText = worker1Metrics
	rt := newTestRouter(t, Options{}, a, b)
	m := fleetScrape(t, rt)

	// Counter: aggregate is the sum; per-backend series carry the parts.
	if v, ok := m.Get("serve_requests_sweep_total"); !ok || v != 7 {
		t.Errorf("aggregate sweep counter = %v (ok=%v), want 7", v, ok)
	}
	if v, _ := m.GetLabeled("serve_requests_sweep_total", map[string]string{"backend": "0"}); v != 3 {
		t.Errorf("backend 0 sweep counter = %v, want 3", v)
	}
	if v, _ := m.GetLabeled("serve_requests_sweep_total", map[string]string{"backend": "1"}); v != 4 {
		t.Errorf("backend 1 sweep counter = %v, want 4", v)
	}

	// Gauges: levels sum, high-water marks take max.
	if v, _ := m.Get("serve_inflight"); v != 3 {
		t.Errorf("serve_inflight = %v, want 3", v)
	}
	if v, _ := m.Get("serve_inflight_high"); v != 4 {
		t.Errorf("serve_inflight_high = %v, want max 4", v)
	}

	// Histograms: deltas merge over the union of bounds and re-cumulate;
	// _sum and _count sum.
	type bucket struct {
		le  string
		cum float64
	}
	for _, tc := range []struct {
		fam        string
		want       []bucket
		sum, count float64
	}{
		{"serve_latency_ns_sweep", []bucket{{"1024", 2}, {"2048", 3}, {"+Inf", 5}}, 12000, 5},
		{"serve_compile_ns", []bucket{{"8", 1}, {"16", 2}, {"64", 4}, {"128", 5}, {"+Inf", 5}}, 185, 5},
	} {
		if typ := m.Types[tc.fam]; typ != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", tc.fam, typ)
		}
		buckets := seriesBuckets(m, tc.fam, "")
		if len(buckets) != len(tc.want) {
			t.Fatalf("%s aggregate buckets = %v, want %v", tc.fam, buckets, tc.want)
		}
		for i, b := range buckets {
			if b.Labels["le"] != tc.want[i].le || b.Value != tc.want[i].cum {
				t.Errorf("%s bucket %d = le=%s %v, want le=%s %v", tc.fam, i, b.Labels["le"], b.Value, tc.want[i].le, tc.want[i].cum)
			}
		}
		if v, _ := m.Get(tc.fam + "_sum"); v != tc.sum {
			t.Errorf("%s_sum = %v, want %v", tc.fam, v, tc.sum)
		}
		if v, _ := m.Get(tc.fam + "_count"); v != tc.count {
			t.Errorf("%s_count = %v, want %v", tc.fam, v, tc.count)
		}
	}

	// The router's own instruments federate as source "router".
	if _, ok := m.GetLabeled("shard_requests_metrics_total", map[string]string{"backend": "router"}); !ok {
		t.Error("router's own counters missing from the fleet exposition")
	}
}

// olderWorkerMetrics is a scrape from a worker on a build that still
// exposed phase timings as summaries, as during a rolling restart: one
// family clashes with the fleet's histogram of the same name, and one
// has a type the merge has no rule for.
const olderWorkerMetrics = `# TYPE serve_requests_sweep_total counter
serve_requests_sweep_total 5
# TYPE serve_compile_ns summary
serve_compile_ns_sum 70
serve_compile_ns_count 1
# TYPE serve_handoff_ns summary
serve_handoff_ns_sum 9
serve_handoff_ns_count 1
`

// TestRouterFleetMetricsDegraded: an unscrapable backend, a family
// whose type clashes across sources, and a family of a type the merge
// does not handle each become a comment, and the rest of the fleet
// still merges.
func TestRouterFleetMetricsDegraded(t *testing.T) {
	a := newFakeWorker(t, 0)
	a.metricsText = worker0Metrics
	b := newFakeWorker(t, 1)
	b.metricsText = "bogus exposition without a TYPE line\n"
	c := newFakeWorker(t, 2)
	c.metricsText = olderWorkerMetrics
	rt := newTestRouter(t, Options{}, a, b, c)

	w := do(t, rt, http.MethodGet, "/v1/metrics?fleet=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("fleet scrape = %d", w.Code)
	}
	body := w.Body.String()
	for _, comment := range []string{
		"# fleet: backend 1",
		"# fleet: family serve_compile_ns has conflicting types across sources; skipped",
		"# fleet: family serve_handoff_ns has unsupported type summary; skipped",
	} {
		if !strings.Contains(body, comment) {
			t.Errorf("no %q comment:\n%s", comment, body)
		}
	}
	m, err := promtext.Parse(body)
	if err != nil {
		t.Fatalf("degraded exposition does not parse: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("degraded exposition invalid: %v\n%s", err, body)
	}
	if v, _ := m.Get("serve_requests_sweep_total"); v != 8 {
		t.Errorf("aggregate from surviving workers = %v, want 8", v)
	}
	for _, fam := range []string{"serve_compile_ns", "serve_handoff_ns"} {
		if _, ok := m.Types[fam]; ok {
			t.Errorf("skipped family %s still declared", fam)
		}
	}
}

// seriesBuckets returns one series' cumulative buckets (selected by
// backend label; "" = the unlabeled aggregate), sorted by bound.
func seriesBuckets(m *promtext.Metrics, family, backend string) []promtext.Sample {
	var out []promtext.Sample
	for _, s := range m.Samples {
		if s.Name != family+"_bucket" || s.Labels["backend"] != backend {
			continue
		}
		if backend == "" && len(s.Labels) != 1 {
			continue
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return leBound(out[i].Labels["le"]) < leBound(out[j].Labels["le"])
	})
	return out
}

func leBound(le string) float64 {
	if le == "+Inf" {
		return math.Inf(1)
	}
	var v float64
	for _, c := range le {
		v = v*10 + float64(c-'0')
	}
	return v
}

// bucketQuantile answers "which bucket bound covers quantile q" from a
// cumulative bucket series — the resolution a power-of-two histogram
// actually has.
func bucketQuantile(buckets []promtext.Sample, q float64) string {
	total := buckets[len(buckets)-1].Value
	rank := math.Ceil(q * total)
	if rank < 1 {
		rank = 1
	}
	for _, b := range buckets {
		if b.Value >= rank {
			return b.Labels["le"]
		}
	}
	return "+Inf"
}

// TestFleetHistogramQuantileExactness: two workers each observe half of
// a population into power-of-two histograms; the fleet-merged histogram
// must equal — bucket for bucket, and therefore at every quantile — one
// histogram that observed the whole population. This is the property
// that makes ?fleet=1 trustworthy for latency dashboards: merging loses
// nothing beyond the grid resolution each worker already had.
func TestFleetHistogramQuantileExactness(t *testing.T) {
	recA, recB, recAll := obs.New(), obs.New(), obs.New()
	hA := recA.Histogram("test.latency_ns")
	hB := recB.Histogram("test.latency_ns")
	hAll := recAll.Histogram("test.latency_ns")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		// Log-uniform latencies spanning ~9 decades, split across the
		// two workers like a load balancer would.
		v := int64(math.Exp(rng.Float64() * 20))
		if i%2 == 0 {
			hA.Observe(v)
		} else {
			hB.Observe(v)
		}
		hAll.Observe(v)
	}
	render := func(r *obs.Recorder) string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := newFakeWorker(t, 0)
	a.metricsText = render(recA)
	b := newFakeWorker(t, 1)
	b.metricsText = render(recB)
	rt := newTestRouter(t, Options{}, a, b)
	m := fleetScrape(t, rt)

	whole, err := promtext.Parse(render(recAll))
	if err != nil {
		t.Fatal(err)
	}
	merged := seriesBuckets(m, "test_latency_ns", "")
	want := whole.Buckets("test_latency_ns")
	if len(merged) != len(want) {
		t.Fatalf("merged has %d buckets, whole population %d", len(merged), len(want))
	}
	for i := range merged {
		if merged[i].Labels["le"] != want[i].Labels["le"] || merged[i].Value != want[i].Value {
			t.Errorf("bucket %d: merged le=%s %v, whole le=%s %v",
				i, merged[i].Labels["le"], merged[i].Value, want[i].Labels["le"], want[i].Value)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := bucketQuantile(merged, q), bucketQuantile(want, q); got != want {
			t.Errorf("p%g: merged %s, whole population %s", q*100, got, want)
		}
	}
	mergedSum, _ := m.Get("test_latency_ns_sum")
	wholeSum, _ := whole.Get("test_latency_ns_sum")
	if mergedSum != wholeSum {
		t.Errorf("merged sum %v != whole-population sum %v", mergedSum, wholeSum)
	}
}
