package serve

// Tests for the per-request middleware and the live-observability
// endpoints: Prometheus exposition at /v1/metrics (validated with the
// promtext parser), the /v1/traces ring buffers and their span trees,
// structured access logging, and the request/trace ID headers.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/promtext"
)

// enableTracing installs a fresh tracer (1ns slow threshold, so every
// finished trace also lands in the slow ring) for the test's duration.
// Must run before the server is constructed: the tracer is resolved at
// New.
func enableTracing(t testing.TB) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(16, time.Nanosecond)
	obs.EnableTracing(tr)
	t.Cleanup(func() { obs.EnableTracing(nil) })
	return tr
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if code, _ := get(t, s.Handler(), "/v1/sweep"); code != http.StatusOK {
		t.Fatal("warmup sweep failed")
	}
	if code, _ := get(t, s.Handler(), "/v1/sweep?bogus=1"); code != http.StatusBadRequest {
		t.Fatal("bad sweep not rejected")
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	m, err := promtext.Parse(w.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, w.Body.String())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, w.Body.String())
	}

	if v, ok := m.Get("serve_requests_sweep_total"); !ok || v != 2 {
		t.Errorf("serve_requests_sweep_total = %v (ok=%v), want 2", v, ok)
	}
	if m.Types["serve_latency_ns_sweep"] != "histogram" {
		t.Errorf("serve_latency_ns_sweep type = %q, want histogram", m.Types["serve_latency_ns_sweep"])
	}
	if v, ok := m.Get("serve_latency_ns_sweep_count"); !ok || v != 2 {
		t.Errorf("serve_latency_ns_sweep_count = %v, want 2", v)
	}
	// The status-class split: one 200 and one 400 sweep.
	if v, _ := m.Get("serve_latency_ns_sweep_2xx_count"); v != 1 {
		t.Errorf("serve_latency_ns_sweep_2xx_count = %v, want 1", v)
	}
	if v, _ := m.Get("serve_latency_ns_sweep_4xx_count"); v != 1 {
		t.Errorf("serve_latency_ns_sweep_4xx_count = %v, want 1", v)
	}
	if _, ok := m.Get("serve_inflight"); !ok {
		t.Error("serve_inflight gauge missing")
	}
	if v, ok := m.Get("serve_cache_misses_total"); !ok || v < 1 {
		t.Errorf("serve_cache_misses_total = %v, want >= 1", v)
	}
	// Phase timings render as histograms under their own _ns names.
	if m.Types["serve_compile_ns"] != "histogram" {
		t.Errorf("serve_compile_ns type = %q, want histogram", m.Types["serve_compile_ns"])
	}
	for _, suffix := range []string{"_min", "_max"} {
		if _, ok := m.Get("serve_compile_ns" + suffix); ok {
			t.Errorf("serve_compile_ns%s gauge still exposed", suffix)
		}
	}
}

// TestMetricsEndpointDisabled: with no recorder enabled the endpoint
// still answers 200 with valid (empty) exposition.
func TestMetricsEndpointDisabled(t *testing.T) {
	e, inv := fixture(t)
	obs.Enable(nil)
	s, err := New(map[string]Ensemble{"oahu": e}, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", w.Code)
	}
	m, err := promtext.Parse(w.Body.String())
	if err != nil {
		t.Fatalf("disabled exposition does not parse: %v", err)
	}
	if len(m.Samples) != 0 {
		t.Errorf("disabled exposition has %d samples, want 0", len(m.Samples))
	}
}

// spanNames flattens a rendered span tree (depth-first) into the span
// names it contains.
func spanNames(span map[string]any) []string {
	names := []string{span["name"].(string)}
	if children, ok := span["children"].([]any); ok {
		for _, c := range children {
			names = append(names, spanNames(c.(map[string]any))...)
		}
	}
	return names
}

// TestTracesEndpointSpanTree is the acceptance path: a traced sweep's
// trace, read back from /v1/traces, must contain the full serving
// pipeline — validate → cache → compile → evaluate → encode — as a
// span tree, with the compile nested under the cache wait.
func TestTracesEndpointSpanTree(t *testing.T) {
	enableTracing(t)
	s, _ := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d", w.Code)
	}
	traceID := w.Header().Get("X-Trace-Id")
	if len(traceID) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex digits", traceID)
	}
	if w.Header().Get("X-Request-Id") == "" {
		t.Error("X-Request-Id header missing")
	}

	code, body := get(t, s.Handler(), "/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("/v1/traces = %d", code)
	}
	if body["enabled"] != true {
		t.Fatalf("enabled = %v, want true", body["enabled"])
	}
	stats := body["stats"].(map[string]any)
	if stats["finished"].(float64) < 1 {
		t.Errorf("stats.finished = %v, want >= 1", stats["finished"])
	}

	// The 1ns threshold makes every trace slow, so the sweep must be
	// retained in both rings; find it by the header's trace ID.
	var sweep map[string]any
	for _, ring := range []string{"recent", "slow"} {
		found := false
		for _, raw := range body[ring].([]any) {
			tr := raw.(map[string]any)
			if tr["trace_id"] == traceID {
				sweep, found = tr, true
			}
		}
		if !found {
			t.Fatalf("trace %s missing from %s ring: %v", traceID, ring, body[ring])
		}
	}
	if sweep["name"] != "sweep" || sweep["slow"] != true {
		t.Errorf("trace header = name %v slow %v, want sweep/true", sweep["name"], sweep["slow"])
	}
	if sweep["duration_ns"].(float64) <= 0 {
		t.Errorf("duration_ns = %v, want > 0", sweep["duration_ns"])
	}

	spans := sweep["spans"].([]any)
	if len(spans) != 1 {
		t.Fatalf("trace has %d root spans, want 1", len(spans))
	}
	root := spans[0].(map[string]any)
	names := spanNames(root)
	for _, want := range []string{"validate", "cache", "compile", "compile.matrix", "compile.dedup", "evaluate", "engine.foreach", "encode"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("span %q missing from trace tree %v", want, names)
		}
	}
	// Structure: compile nests under the cache wait, and the cache span
	// is annotated with this request's outcome (a cold-start miss).
	var cacheSpan map[string]any
	for _, c := range root["children"].([]any) {
		if cs := c.(map[string]any); cs["name"] == "cache" {
			cacheSpan = cs
		}
	}
	if cacheSpan == nil {
		t.Fatalf("cache span is not a child of the root: %v", names)
	}
	if notes, ok := cacheSpan["notes"].(map[string]any); !ok || notes["outcome"] != "miss" {
		t.Errorf("cache span notes = %v, want outcome=miss", cacheSpan["notes"])
	}
	if !strings.Contains(strings.Join(spanNames(cacheSpan), " "), "compile") {
		t.Errorf("compile span not nested under cache: %v", spanNames(cacheSpan))
	}

	// A warm repeat traces as a hit with no compile under the cache.
	req = httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	hitID := w.Header().Get("X-Trace-Id")
	code, body = get(t, s.Handler(), "/v1/traces")
	if code != http.StatusOK {
		t.Fatal("second /v1/traces failed")
	}
	for _, raw := range body["recent"].([]any) {
		tr := raw.(map[string]any)
		if tr["trace_id"] != hitID {
			continue
		}
		rootSpan := tr["spans"].([]any)[0].(map[string]any)
		for _, c := range rootSpan["children"].([]any) {
			cs := c.(map[string]any)
			if cs["name"] != "cache" {
				continue
			}
			if notes, _ := cs["notes"].(map[string]any); notes["outcome"] != "hit" {
				t.Errorf("warm sweep cache notes = %v, want outcome=hit", cs["notes"])
			}
			if nested := spanNames(cs); len(nested) != 1 {
				t.Errorf("warm sweep cache span has nested spans %v, want none", nested)
			}
		}
	}
}

// TestTracesEndpointLimit bounds the traces returned per ring.
func TestTracesEndpointLimit(t *testing.T) {
	enableTracing(t)
	s, _ := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		if code, _ := get(t, s.Handler(), "/v1/healthz"); code != http.StatusOK {
			t.Fatal("healthz failed")
		}
	}
	code, body := get(t, s.Handler(), "/v1/traces?limit=2")
	if code != http.StatusOK {
		t.Fatalf("/v1/traces?limit=2 = %d", code)
	}
	if n := len(body["recent"].([]any)); n != 2 {
		t.Errorf("recent traces = %d, want 2", n)
	}
	if code, _ := get(t, s.Handler(), "/v1/traces?limit=-1"); code != http.StatusBadRequest {
		t.Error("negative limit not rejected")
	}
}

// TestTracingDisabled: with no tracer the serving path must emit no
// trace headers and /v1/traces reports disabled.
func TestTracingDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d", w.Code)
	}
	if h := w.Header().Get("X-Trace-Id"); h != "" {
		t.Errorf("X-Trace-Id = %q, want empty with tracing off", h)
	}
	if h := w.Header().Get("X-Request-Id"); h != "" {
		t.Errorf("X-Request-Id = %q, want empty with tracing and logging off", h)
	}
	code, body := get(t, s.Handler(), "/v1/traces")
	if code != http.StatusOK || body["enabled"] != false {
		t.Errorf("/v1/traces = %d %v, want 200/enabled=false", code, body)
	}
}

// accessLine mirrors accessEntry for decoding log lines in tests.
type accessLine struct {
	Time       string `json:"time"`
	RequestID  string `json:"request_id"`
	TraceID    string `json:"trace_id"`
	Method     string `json:"method"`
	Path       string `json:"path"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	Bytes      int64  `json:"bytes"`
	DurationNS int64  `json:"duration_ns"`
	Cache      string `json:"cache"`
}

func decodeAccessLog(t *testing.T, raw string) []accessLine {
	t.Helper()
	var out []accessLine
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		var e accessLine
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestAccessLog drives a cold sweep, a warm sweep, and a bad request
// through a server with structured access logging, and checks each
// line's endpoint, status, size, duration, cache outcome, and ID
// assignment.
func TestAccessLog(t *testing.T) {
	var buf strings.Builder
	s, _ := newTestServer(t, Options{AccessLog: &buf})
	if code, _ := get(t, s.Handler(), "/v1/sweep"); code != http.StatusOK {
		t.Fatal("cold sweep failed")
	}
	if code, _ := get(t, s.Handler(), "/v1/sweep"); code != http.StatusOK {
		t.Fatal("warm sweep failed")
	}
	if code, _ := get(t, s.Handler(), "/v1/sweep?bogus=1"); code != http.StatusBadRequest {
		t.Fatal("bad sweep not rejected")
	}

	lines := decodeAccessLog(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("access log lines = %d, want 3", len(lines))
	}
	wantCache := []string{"miss", "hit", ""}
	wantStatus := []int{200, 200, 400}
	seenIDs := map[string]bool{}
	for i, e := range lines {
		if e.Endpoint != "sweep" || e.Method != http.MethodGet || e.Path != "/v1/sweep" {
			t.Errorf("line %d envelope = %+v", i, e)
		}
		if e.Status != wantStatus[i] {
			t.Errorf("line %d status = %d, want %d", i, e.Status, wantStatus[i])
		}
		if e.Cache != wantCache[i] {
			t.Errorf("line %d cache = %q, want %q", i, e.Cache, wantCache[i])
		}
		if e.Bytes <= 0 || e.DurationNS <= 0 {
			t.Errorf("line %d bytes/duration = %d/%d, want > 0", i, e.Bytes, e.DurationNS)
		}
		if e.RequestID == "" || seenIDs[e.RequestID] {
			t.Errorf("line %d request_id = %q, want unique and non-empty", i, e.RequestID)
		}
		seenIDs[e.RequestID] = true
		if _, err := time.Parse(time.RFC3339Nano, e.Time); err != nil {
			t.Errorf("line %d time %q: %v", i, e.Time, err)
		}
		// Access logging without tracing: no trace IDs.
		if e.TraceID != "" {
			t.Errorf("line %d trace_id = %q, want empty with tracing off", i, e.TraceID)
		}
	}
}

// TestAccessLogTraceID: with tracing on, the log line's trace ID must
// match the X-Trace-Id the client saw.
func TestAccessLogTraceID(t *testing.T) {
	enableTracing(t)
	var buf strings.Builder
	s, _ := newTestServer(t, Options{AccessLog: &buf})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	lines := decodeAccessLog(t, buf.String())
	if len(lines) != 1 {
		t.Fatalf("access log lines = %d, want 1", len(lines))
	}
	if got, want := lines[0].TraceID, w.Header().Get("X-Trace-Id"); got != want || got == "" {
		t.Errorf("logged trace_id = %q, header = %q, want equal and non-empty", got, want)
	}
}
