package serve

// Tests for cross-process trace propagation on the worker side: the
// middleware adopting an inbound traceparent header, the by-ID trace
// lookup the router's stitcher calls, and job trace continuity via the
// X-Job-Trace-Id header.

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/racetest"
)

// TestMiddlewareAdoptsInboundTraceparent: a request carrying a valid
// traceparent runs under the caller's trace ID with the caller's span
// recorded as the remote parent — the contract the router's stitcher
// splices on.
func TestMiddlewareAdoptsInboundTraceparent(t *testing.T) {
	enableTracing(t)
	s, _ := newTestServer(t, Options{})
	const parent = "00-0000000000000000feedfacecafebeef-000000000000002a-01"
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	req.Header.Set("traceparent", parent)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Trace-Id"); got != "feedfacecafebeef" {
		t.Fatalf("X-Trace-Id = %q, want adopted feedfacecafebeef", got)
	}

	code, rep := get(t, s.Handler(), "/v1/traces/feedfacecafebeef")
	if code != http.StatusOK {
		t.Fatalf("trace fetch = %d: %v", code, rep)
	}
	if rep["trace_id"] != "feedfacecafebeef" {
		t.Errorf("trace_id = %v", rep["trace_id"])
	}
	if rep["remote_parent_span_id"] != float64(0x2a) {
		t.Errorf("remote_parent_span_id = %v, want 42", rep["remote_parent_span_id"])
	}
	spans := rep["spans"].([]any)
	if names := spanNames(spans[0].(map[string]any)); names[0] != "sweep" {
		t.Errorf("root span = %q, want sweep", names[0])
	}
}

// TestMiddlewareIgnoresMalformedTraceparent: a garbage header must not
// poison the trace — the server mints a fresh local ID.
func TestMiddlewareIgnoresMalformedTraceparent(t *testing.T) {
	enableTracing(t)
	s, _ := newTestServer(t, Options{})
	for _, h := range []string{
		"", "garbage",
		"00-0000000000000000FEEDFACECAFEBEEF-000000000000002a-01", // uppercase hex
		"00-00000000000000000000000000000000-000000000000002a-01", // zero trace id
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
		if h != "" {
			req.Header.Set("traceparent", h)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("sweep = %d", w.Code)
		}
		id := w.Header().Get("X-Trace-Id")
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
			t.Fatalf("header %q: X-Trace-Id = %q, want fresh 16-hex id", h, id)
		}
		if id == "feedfacecafebeef" {
			t.Fatalf("header %q was adopted, want rejected", h)
		}
	}
}

// TestTraceGetNotFound covers the lookup's 404 paths: an unknown ID
// with tracing on, and any ID with tracing off.
func TestTraceGetNotFound(t *testing.T) {
	enableTracing(t)
	s, _ := newTestServer(t, Options{})
	code, body := get(t, s.Handler(), "/v1/traces/00000000deadbeef")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d: %v", code, body)
	}

	disabled, _ := newTestServer(t, Options{}) // DefaultTracer was resolved at New; disable for this one
	disabled.tracer = nil
	code, body = get(t, disabled.Handler(), "/v1/traces/00000000deadbeef")
	if code != http.StatusNotFound {
		t.Fatalf("disabled trace fetch = %d: %v", code, body)
	}
	if msg, _ := body["error"].(map[string]any); msg["message"] != "tracing is disabled" {
		t.Errorf("disabled message = %v", msg["message"])
	}
}

// TestJobTraceContinuity: a placement-search submission reports the
// job's execution trace ID on the submit and poll responses, and the
// job trace links back to the submitting request's trace.
func TestJobTraceContinuity(t *testing.T) {
	tr := enableTracing(t)
	s, _ := newTestServer(t, Options{})

	req := httptest.NewRequest(http.MethodPost, "/v1/placement/search", strings.NewReader(`{"k":2,"exact":true}`))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	code, sub := decodeBody(t, w, "POST /v1/placement/search")
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	jobTrace := w.Header().Get(JobTraceHeader)
	submitTrace := w.Header().Get("X-Trace-Id")
	if jobTrace == "" || jobTrace == submitTrace {
		t.Fatalf("%s = %q (submit trace %q), want a distinct job trace", JobTraceHeader, jobTrace, submitTrace)
	}
	id := sub["job_id"].(string)

	preq := httptest.NewRequest(http.MethodGet, "/v1/placement/jobs/"+id, nil)
	pw := httptest.NewRecorder()
	s.Handler().ServeHTTP(pw, preq)
	if got := pw.Header().Get(JobTraceHeader); got != jobTrace {
		t.Errorf("poll %s = %q, want %q", JobTraceHeader, got, jobTrace)
	}
	pollJob(t, s.Handler(), id)

	// The job trace is published on finish, annotated with the job ID
	// and the submitting trace. Publication races the poll loop's last
	// response by a hair, so allow a short settle.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Find(jobTrace) == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	code, rep := get(t, s.Handler(), "/v1/traces/"+jobTrace)
	if code != http.StatusOK {
		t.Fatalf("job trace fetch = %d: %v", code, rep)
	}
	if rep["name"] != "placement.job" {
		t.Errorf("job trace name = %v", rep["name"])
	}
	root := rep["spans"].([]any)[0].(map[string]any)
	notes, _ := root["notes"].(map[string]any)
	if notes["job_id"] != id {
		t.Errorf("job trace job_id note = %v, want %v", notes["job_id"], id)
	}
	if notes["submit_trace_id"] != submitTrace {
		t.Errorf("job trace submit_trace_id = %v, want %v", notes["submit_trace_id"], submitTrace)
	}
}

// TestPropagationDisabledZeroAlloc is the exact form of the
// zero-overhead claim: with no tracer installed, serving a request
// that carries a traceparent header allocates precisely as much as
// serving one without — the middleware never even parses the header.
// (The BENCH_10 "obs" benchmarks show the same thing modulo harness
// noise; this is the alloc-exact gate.)
func TestPropagationDisabledZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	s, _ := newTestServer(t, Options{}) // no enableTracing: tracer is nil
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(t, s.Handler(), url); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	serve := func(withHeader bool) float64 {
		return testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest(http.MethodGet, url, nil)
			if withHeader {
				req.Header["Traceparent"] = benchTPVal
			}
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("sweep = %d", w.Code)
			}
		})
	}
	without := serve(false)
	with := serve(true)
	// The only admissible delta is the harness installing the header
	// (one map-bucket allocation); the propagation path itself must be
	// free when tracing is off.
	if with > without+1 {
		t.Errorf("traceparent-carrying request allocates %v, headerless %v — propagation is not free when disabled", with, without)
	}
}
