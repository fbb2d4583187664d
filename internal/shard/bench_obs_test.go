package shard

// Benchmark for the fleet metrics federation path: one
// GET /v1/metrics?fleet=1 scrape that fans out to two backends,
// parses both expositions, merges every family (counters, gauges, and
// bucket-wise histograms), and renders the aggregated plus
// per-backend-labeled exposition. `make bench-check` gates it.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/obs"
)

// benchWorkerMetrics renders a realistic worker scrape: the request
// counters, latency histograms, and cache/compile instruments a warmed
// worker actually exposes, populated with seed-varied traffic.
func benchWorkerMetrics(b *testing.B, seed int64) string {
	b.Helper()
	rec := obs.New()
	for i, name := range []string{"sweep", "figure", "placement", "healthz", "metrics"} {
		c := rec.Counter("serve.requests." + name)
		h := rec.Histogram("serve.latency_ns." + name)
		d := rec.Histogram("serve.compile_ns." + name)
		for n := int64(0); n < 200; n++ {
			c.Add(1)
			h.Observe((seed + n*int64(i+1)) % (1 << 20))
			d.Observe((time.Duration(seed+n) * time.Microsecond).Nanoseconds())
		}
	}
	rec.Gauge("serve.inflight").Set(seed % 7)
	var sb strings.Builder
	if err := rec.WritePrometheus(&sb); err != nil {
		b.Fatal(err)
	}
	return sb.String()
}

// benchFleetRouter stands up two canned-exposition backends and a
// router with both healthy.
func benchFleetRouter(b *testing.B) *Router {
	b.Helper()
	obs.Enable(obs.New())
	b.Cleanup(func() { obs.Enable(nil) })
	var opt Options
	for i := 0; i < 2; i++ {
		metrics := benchWorkerMetrics(b, int64(1000*(i+1)))
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok","ensembles":[{"name":"hurricane","fingerprint":"00000000cafef00d"}]}`)
		})
		mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprint(w, metrics)
		})
		srv := httptest.NewServer(mux)
		b.Cleanup(srv.Close)
		opt.Backends = append(opt.Backends, srv.URL)
	}
	opt.HealthInterval = 50 * time.Millisecond
	rt, err := New(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, bk := range rt.backends {
			if bk.healthy.Load() {
				healthy++
			}
		}
		if healthy == len(rt.backends) {
			return rt
		}
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d backends healthy after 5s", healthy, len(rt.backends))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkObsFleetMerge measures one full federated scrape: router
// self-scrape, two concurrent backend scrapes over HTTP, exposition
// parsing, family merge, and the final render.
func BenchmarkObsFleetMerge(b *testing.B) {
	rt := benchFleetRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/metrics?fleet=1", nil)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("fleet scrape = %d: %s", w.Code, w.Body.String())
		}
	}
}
