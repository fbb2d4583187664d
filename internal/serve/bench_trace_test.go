package serve

// Benchmarks for the observability cost of the serving path: the
// cached sweep with tracing on vs off (the off path must stay within a
// few percent of the untraced BENCH_4 numbers) and the live Prometheus
// exposition render at /v1/metrics. `make bench-check` gates them.

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"compoundthreat/internal/obs"
)

// obsServer builds the benchmark server with a live recorder enabled —
// the threatserver default configuration — and, when traceBuffer > 0,
// request tracing with the production defaults (250ms slow threshold).
// Observability state is restored when the benchmark ends so the
// obs-off benchmarks in bench_test.go stay unaffected.
func obsServer(b *testing.B, opt Options, traceBuffer int) *Server {
	b.Helper()
	ensembles, inv := benchFixture(b)
	obs.Enable(obs.New())
	b.Cleanup(func() { obs.Enable(nil) })
	if traceBuffer > 0 {
		obs.EnableTracing(obs.NewTracer(traceBuffer, 250*time.Millisecond))
		b.Cleanup(func() { obs.EnableTracing(nil) })
	}
	s, err := New(ensembles, inv, opt)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTracedSweep is the cached sweep with full request tracing:
// every iteration starts a trace, records the validate/cache/evaluate/
// encode span tree into the ring buffers, and sets the ID headers.
func BenchmarkTracedSweep(b *testing.B) {
	s := obsServer(b, Options{}, 256)
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(b, s.Handler(), url); code != http.StatusOK {
		b.Fatal("warmup failed")
	}
	serveBench(b, s.Handler(), url)
}

// BenchmarkTracingOffSweep is the same cached sweep with a live
// recorder but no tracer — the span plumbing all collapses to nil
// no-ops. The delta against BenchmarkTracedSweep is the whole cost of
// tracing; the delta against BenchmarkServeSweepCached is the cost of
// metrics recording.
func BenchmarkTracingOffSweep(b *testing.B) {
	s := obsServer(b, Options{}, 0)
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(b, s.Handler(), url); code != http.StatusOK {
		b.Fatal("warmup failed")
	}
	serveBench(b, s.Handler(), url)
}

// BenchmarkMetricsRender renders the live Prometheus exposition for a
// recorder warmed by real traffic — the recurring cost a scrape puts
// on the server.
func BenchmarkMetricsRender(b *testing.B) {
	s := obsServer(b, Options{}, 256)
	for _, url := range []string{"/v1/sweep?scenario=both", "/v1/figure/9", "/v1/healthz"} {
		if code, _ := get(b, s.Handler(), url); code != http.StatusOK {
			b.Fatal("warmup failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}
