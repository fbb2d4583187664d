package obs

import (
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/promtext"
)

// render writes the recorder's Prometheus exposition to a string and
// parses it with the test-side parser, failing the test on either
// error.
func render(t *testing.T, r *Recorder) *promtext.Metrics {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	m, err := promtext.Parse(sb.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
	return m
}

// TestWritePrometheus renders every instrument kind and checks the
// mapped families and values.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("serve.requests.sweep").Add(7)
	g := r.Gauge("serve.inflight")
	g.Set(5)
	g.Set(2)
	d := r.Histogram("engine.evaluate_ns")
	d.Observe((3 * time.Millisecond).Nanoseconds())
	d.Observe((5 * time.Millisecond).Nanoseconds())
	h := r.Histogram("serve.latency_ns.sweep")
	for _, v := range []int64{1, 3, 3, 1000} {
		h.Observe(v)
	}

	m := render(t, r)

	if v, ok := m.Get("serve_requests_sweep_total"); !ok || v != 7 {
		t.Fatalf("counter = %v (present=%v), want 7", v, ok)
	}
	if v, _ := m.Get("serve_inflight"); v != 2 {
		t.Fatalf("gauge level = %v, want 2", v)
	}
	if v, _ := m.Get("serve_inflight_high"); v != 5 {
		t.Fatalf("gauge high-water = %v, want 5", v)
	}
	// A duration renders under its own name as one histogram: _sum and
	// _count, no summary and no min/max gauges.
	if typ := m.Types["engine_evaluate_ns"]; typ != "histogram" {
		t.Fatalf("duration family TYPE = %q, want histogram", typ)
	}
	if v, _ := m.Get("engine_evaluate_ns_count"); v != 2 {
		t.Fatalf("duration count = %v, want 2", v)
	}
	if v, _ := m.Get("engine_evaluate_ns_sum"); v != float64((8 * time.Millisecond).Nanoseconds()) {
		t.Fatalf("duration sum = %v", v)
	}
	for _, suffix := range []string{"_min", "_max"} {
		if _, ok := m.Get("engine_evaluate_ns" + suffix); ok {
			t.Fatalf("engine_evaluate_ns%s still exposed", suffix)
		}
	}

	// Power-of-two buckets: 1 lands in [1,2), 3 twice in [2,4), 1000 in
	// [512,1024) — cumulative counts at the exact le bounds.
	buckets := m.Buckets("serve_latency_ns_sweep")
	want := map[string]float64{"2": 1, "4": 3, "1024": 4, "+Inf": 4}
	if len(buckets) != len(want) {
		t.Fatalf("bucket count = %d (%v), want %d", len(buckets), buckets, len(want))
	}
	for _, b := range buckets {
		if want[b.Labels["le"]] != b.Value {
			t.Fatalf("bucket le=%q = %v, want %v", b.Labels["le"], b.Value, want[b.Labels["le"]])
		}
	}
	if v, _ := m.Get("serve_latency_ns_sweep_sum"); v != 1007 {
		t.Fatalf("histogram sum = %v, want 1007", v)
	}
}

// TestWritePrometheusEdgeBuckets checks the exposition of the two
// unbounded-ish buckets: non-positive observations (le="0") and the
// last internal bucket, which has no finite bound and must fold only
// into +Inf.
func TestWritePrometheusEdgeBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	h.Observe(-5)
	h.Observe(0)
	h.Observe(int64(1) << 40) // beyond the finite buckets
	m := render(t, r)
	buckets := m.Buckets("h")
	if buckets[0].Labels["le"] != "0" || buckets[0].Value != 2 {
		t.Fatalf("non-positive bucket = %+v, want le=0 count=2", buckets[0])
	}
	last := buckets[len(buckets)-1]
	if last.Labels["le"] != "+Inf" || last.Value != 3 {
		t.Fatalf("+Inf bucket = %+v, want 3", last)
	}
	if len(buckets) != 2 {
		t.Fatalf("oversized observation leaked a finite bucket: %v", buckets)
	}
}

// TestWritePrometheusNil checks a nil recorder still writes valid
// (empty) exposition — a scrape of a disabled server must not 500.
func TestWritePrometheusNil(t *testing.T) {
	var r *Recorder
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
	if !strings.HasPrefix(sb.String(), "#") {
		t.Fatalf("nil exposition = %q, want a comment line", sb.String())
	}
	if _, err := promtext.Parse(sb.String()); err != nil {
		t.Fatalf("nil exposition does not parse: %v", err)
	}
}

// TestPromName pins the instrument-name sanitizer.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.latency_ns.sweep": "serve_latency_ns_sweep",
		"9lives":                 "_9lives",
		"ok_name":                "ok_name",
		"weird-emoji_☃":          "weird_emoji__",
		"":                       "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
