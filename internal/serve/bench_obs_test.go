package serve

// Benchmarks for the cost of cross-process trace propagation on the
// worker side: a cached sweep arriving with a W3C traceparent header,
// with tracing on (the middleware parses the header and adopts the
// remote trace context) and with tracing off (the header must be
// ignored for free — the parse is gated behind the tracer-enabled
// check, so the off path stays at the untraced allocation count).
// `make bench-check` gates them.

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchTraceParent is a fixed upstream context, as the router would
// inject it: 128-bit trace ID (low 64 bits meaningful), parent span 3.
const benchTraceParent = "00-0000000000000000feedfacecafebeef-0000000000000003-01"

// benchTPVal is the header value pre-boxed, and the key pre-canonical,
// so installing the header costs the harness one map-bucket allocation
// instead of three — keeping the propagation-off numbers readable next
// to the headerless BenchmarkTracingOffSweep. The exact zero-extra-
// allocation claim is enforced by TestPropagationDisabledZeroAlloc.
var benchTPVal = []string{benchTraceParent}

// serveBenchTraced drives the handler with a traceparent header on
// every request, like traffic forwarded by the sharded router.
func serveBenchTraced(b *testing.B, h http.Handler, url string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header["Traceparent"] = benchTPVal
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkObsRemoteTracedSweep is the cached sweep as the router
// delivers it: tracing on and a traceparent header adopted on every
// request, so the recorded trace is a remote continuation rather than
// a local root. The delta against BenchmarkTracedSweep is the whole
// cost of propagation: one header parse plus the remote-parent fields.
func BenchmarkObsRemoteTracedSweep(b *testing.B) {
	s := obsServer(b, Options{}, 256)
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(b, s.Handler(), url); code != http.StatusOK {
		b.Fatal("warmup failed")
	}
	serveBenchTraced(b, s.Handler(), url)
}

// BenchmarkObsPropagationOffSweep is the same header-carrying sweep
// with no tracer installed. The middleware must not even parse the
// traceparent — allocations and latency must match the headerless
// BenchmarkTracingOffSweep exactly, which is the zero-overhead claim
// BENCH_10 records.
func BenchmarkObsPropagationOffSweep(b *testing.B) {
	s := obsServer(b, Options{}, 0)
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(b, s.Handler(), url); code != http.StatusOK {
		b.Fatal("warmup failed")
	}
	serveBenchTraced(b, s.Handler(), url)
}
