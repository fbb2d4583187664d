package shard

// Multi-process observability tests: end-to-end trace propagation and
// stitching across real re-executed worker processes, and fleet-wide
// metrics federation checked against direct worker scrapes.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/promtext"
)

// TestShardedTraceStitch is the acceptance path for cross-process
// tracing: a sweep routed through a real two-worker cluster leaves one
// trace ID spanning both processes, and the router's stitched trace
// shows the worker's serving spans nested (by splice and by duration)
// inside the router's client-call span.
func TestShardedTraceStitch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests in -short mode")
	}
	enableObs(t)
	obs.EnableTracing(obs.NewTracer(64, 0))
	t.Cleanup(func() { obs.EnableTracing(nil) })
	const realizations = 48
	c := startCluster(t, 2, realizations, Options{}, "-trace-buffer", "64")
	t.Cleanup(c.stopAll)

	req := httptest.NewRequest(http.MethodGet, "/v1/sweep?scenario=both", nil)
	w := httptest.NewRecorder()
	c.rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("routed sweep = %d: %s", w.Code, w.Body.String())
	}
	traceID := w.Header().Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("router did not assign a trace ID")
	}

	res := httptest.NewRecorder()
	c.rt.Handler().ServeHTTP(res, httptest.NewRequest(http.MethodGet, "/v1/traces/"+traceID, nil))
	if res.Code != http.StatusOK {
		t.Fatalf("stitched trace fetch = %d: %s", res.Code, res.Body.String())
	}
	var rep obs.TraceReport
	if err := json.Unmarshal(res.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != traceID {
		t.Fatalf("stitched report carries trace %s, want %s", rep.TraceID, traceID)
	}
	if rep.Spans[0].Name != "sweep" {
		t.Errorf("router root span = %q, want sweep", rep.Spans[0].Name)
	}

	// The client-call span carries the backend note and exactly one
	// spliced worker subtree whose root is the worker's handler trace.
	var call, spliced *obs.SpanReport
	var walk func(spans []obs.SpanReport)
	walk = func(spans []obs.SpanReport) {
		for i := range spans {
			if spans[i].Notes["backend"] != "" {
				call = &spans[i]
			}
			walk(spans[i].Children)
		}
	}
	walk(rep.Spans)
	if call == nil {
		t.Fatalf("no client-call span with a backend note in %s", res.Body.String())
	}
	for i := range call.Children {
		if call.Children[i].Notes["remote_backend"] == call.Notes["backend"] {
			spliced = &call.Children[i]
		}
	}
	if spliced == nil {
		t.Fatalf("no worker spans spliced under client-call span %q (notes %v): %s",
			call.Name, call.Notes, res.Body.String())
	}
	if spliced.Name != "sweep" {
		t.Errorf("worker root span = %q, want sweep", spliced.Name)
	}
	// Duration containment: the worker's serving time fits inside the
	// router's client-call span, and every worker child fits inside the
	// worker root.
	if spliced.DurationNS <= 0 || spliced.DurationNS > call.DurationNS {
		t.Errorf("worker span %dns not nested in client-call span %dns", spliced.DurationNS, call.DurationNS)
	}
	if call.Notes["net_ns"] == "" {
		t.Error("client-call span missing the net_ns hop annotation")
	}
	if len(spliced.Children) == 0 {
		t.Error("worker subtree has no serving-pipeline spans")
	}
	for _, child := range spliced.Children {
		if child.DurationNS > spliced.DurationNS {
			t.Errorf("worker child %q (%dns) exceeds worker root (%dns)", child.Name, child.DurationNS, spliced.DurationNS)
		}
	}
}

// TestShardedFleetMetrics: on a quiesced cluster, the federated
// exposition validates and its aggregated counters equal the sum of
// the workers' own scrapes, with per-backend series matching each
// worker exactly.
func TestShardedFleetMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests in -short mode")
	}
	enableObs(t)
	const realizations = 48
	c := startCluster(t, 2, realizations, Options{})
	t.Cleanup(c.stopAll)

	for _, q := range identityQueries {
		if code, body, _ := roundTrip(c.rt.Handler(), q.method, q.url, q.body); code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", q.method, q.url, code, body)
		}
	}

	// Quiesced: roundTrip is synchronous, so nothing is in flight now
	// except the health prober, whose families the checks avoid.
	direct := make([]*promtext.Metrics, len(c.workers))
	for i, w := range c.workers {
		resp, err := http.Get("http://" + w.addr + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if direct[i], err = promtext.Parse(string(body)); err != nil {
			t.Fatalf("worker %d exposition: %v", i, err)
		}
	}

	w := httptest.NewRecorder()
	c.rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics?fleet=1", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("fleet scrape = %d: %s", w.Code, w.Body.String())
	}
	fleet, err := promtext.Parse(w.Body.String())
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v\n%s", err, w.Body.String())
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet exposition invalid: %v\n%s", err, w.Body.String())
	}

	// Families driven only by the (now finished) query battery — the
	// prober and the fleet scrape itself cannot move these between the
	// direct scrapes and the federated one.
	for _, fam := range []string{
		"serve_requests_sweep_total",
		"serve_requests_figure_total",
		"serve_requests_placement_total",
		"serve_latency_ns_sweep_count",
	} {
		var sum float64
		for i, d := range direct {
			v, ok := d.Get(fam)
			if !ok {
				t.Fatalf("worker %d scrape missing %s", i, fam)
			}
			sum += v
			got, ok := fleet.GetLabeled(fam, map[string]string{"backend": c.rt.backends[i].indexStr})
			if !ok || got != v {
				t.Errorf("%s{backend=%q} = %v (ok=%v), worker scrape says %v", fam, c.rt.backends[i].indexStr, got, ok, v)
			}
		}
		if agg, ok := fleet.Get(fam); !ok || agg != sum {
			t.Errorf("aggregate %s = %v (ok=%v), want sum of worker scrapes %v", fam, agg, ok, sum)
		}
		if sum == 0 {
			t.Errorf("%s never moved — the battery did not exercise it", fam)
		}
	}

	// A phase duration federates like any latency histogram: at every
	// bound, the fleet's cumulative count is the sum of what each
	// worker's own scrape says at that bound.
	if typ := fleet.Types["serve_compile_ns"]; typ != "histogram" {
		t.Fatalf("serve_compile_ns TYPE = %q, want histogram", typ)
	}
	merged := seriesBuckets(fleet, "serve_compile_ns", "")
	if len(merged) == 0 {
		t.Fatal("serve_compile_ns has no fleet buckets")
	}
	for _, b := range merged {
		bound := leBound(b.Labels["le"])
		var want float64
		for _, d := range direct {
			want += cumulativeAt(d.Buckets("serve_compile_ns"), bound)
		}
		if b.Value != want {
			t.Errorf("fleet serve_compile_ns_bucket{le=%q} = %v, want the workers' sum %v", b.Labels["le"], b.Value, want)
		}
	}
}

// cumulativeAt reads a cumulative bucket series (sorted by bound) at
// bound: the count of its last bucket at or below it, 0 if none.
func cumulativeAt(buckets []promtext.Sample, bound float64) float64 {
	v := 0.0
	for _, b := range buckets {
		if leBound(b.Labels["le"]) > bound {
			break
		}
		v = b.Value
	}
	return v
}
