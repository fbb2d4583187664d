package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
)

// fakeWorker is a scriptable stand-in for a threatserver worker: it
// answers health probes with a settable ensemble fingerprint, counts
// sweep hits, owns an explicit set of job IDs, and can be told to fail
// every query with a 500 or to reject sweeps with a fixed 4xx.
type fakeWorker struct {
	idx    int
	srv    *httptest.Server
	sweeps atomic.Int64
	// queries counts every request but health and readiness probes.
	queries atomic.Int64
	fail    atomic.Bool
	reject  atomic.Int64 // non-zero: sweeps answer this status
	// healthDelay stalls every health probe answer, as a worker busy
	// generating an ensemble does.
	healthDelay atomic.Int64

	mu          sync.Mutex
	fp          string        // fingerprint advertised for "hurricane", echoed in sweep bodies
	gate        chan struct{} // non-nil: sweep blocks until closed
	jobs        map[string]bool
	traceparent string                        // last traceparent header seen on a sweep
	traceFn     func(id string) (int, string) // scripts GET /v1/traces/{id}; nil = 404
	metricsText string                        // canned GET /v1/metrics exposition
}

func (f *fakeWorker) lastTraceparent() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.traceparent
}

// setFingerprint changes the content the worker holds under
// "hurricane", as a restart with another ensemble would.
func (f *fakeWorker) setFingerprint(fp string) {
	f.mu.Lock()
	f.fp = fp
	f.mu.Unlock()
}

func (f *fakeWorker) fingerprint() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fp
}

func (f *fakeWorker) setGate(ch chan struct{}) {
	f.mu.Lock()
	f.gate = ch
	f.mu.Unlock()
}

func (f *fakeWorker) ownJob(id string) {
	f.mu.Lock()
	f.jobs[id] = true
	f.mu.Unlock()
}

func newFakeWorker(t *testing.T, idx int) *fakeWorker {
	t.Helper()
	f := &fakeWorker{idx: idx, jobs: make(map[string]bool), fp: "00000000cafef00d"}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Duration(f.healthDelay.Load()))
		fmt.Fprintf(w, `{"status":"ok","ensembles":[{"name":"hurricane","fingerprint":%q}],"default_ensemble":"hurricane"}`, f.fingerprint())
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if f.fail.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		if code := f.reject.Load(); code != 0 {
			f.sweeps.Add(1)
			w.WriteHeader(int(code))
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"injected rejection"}}`)
			return
		}
		f.mu.Lock()
		f.traceparent = r.Header.Get("traceparent")
		gate := f.gate
		fp := f.fp
		f.mu.Unlock()
		if gate != nil {
			<-gate
		}
		f.sweeps.Add(1)
		fmt.Fprintf(w, `{"worker":%d,"fp":%q}`, f.idx, fp)
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		fn := f.traceFn
		f.mu.Unlock()
		if fn == nil {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"no trace"}}`)
			return
		}
		code, body := fn(r.PathValue("id"))
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		text := f.metricsText
		f.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, text)
	})
	mux.HandleFunc("POST /v1/placement/search", func(w http.ResponseWriter, r *http.Request) {
		if f.fail.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		id := fmt.Sprintf("job-%d", f.idx)
		f.ownJob(id)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"job_id":%q}`, id)
	})
	mux.HandleFunc("GET /v1/placement/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if f.fail.Load() {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		id := r.PathValue("id")
		f.mu.Lock()
		owned := f.jobs[id]
		f.mu.Unlock()
		if !owned {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":{"code":"not_found","message":"no job %s"}}`, id)
			return
		}
		fmt.Fprintf(w, `{"job_id":%q,"status":"done","worker":%d}`, id, f.idx)
	})
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" && r.URL.Path != "/v1/readyz" {
			f.queries.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// newTestRouter builds a router over the given fake workers and waits
// for the first probe sweep to mark them healthy.
func newTestRouter(t *testing.T, opt Options, workers ...*fakeWorker) *Router {
	t.Helper()
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	for _, f := range workers {
		opt.Backends = append(opt.Backends, f.srv.URL)
	}
	if opt.HealthInterval == 0 {
		opt.HealthInterval = 50 * time.Millisecond
	}
	rt, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	awaitHealthy(t, rt)
	return rt
}

// awaitHealthy waits for the router's probes to mark every backend
// healthy.
func awaitHealthy(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		healthy := 0
		for _, b := range rt.backends {
			if b.healthy.Load() {
				healthy++
			}
		}
		if healthy == len(rt.backends) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d backends healthy after 5s", healthy, len(rt.backends))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// do runs one request through the router handler.
func do(t *testing.T, rt *Router, method, url string, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, url, nil)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// viewSweeps are distinct sweeps over one compiled view: the scenario,
// the ensemble name and the config list change the answer but not the
// view, so all of them share one shard key while no two share a
// response key (a repeat would be answered from the router's memo).
// None repeats a bare "/v1/sweep" either: a default spelled out, as in
// the last entry's primary, is the same read as the default omitted.
var viewSweeps = []string{
	"/v1/sweep?scenario=intrusion",
	"/v1/sweep?scenario=isolation",
	"/v1/sweep?scenario=both",
	"/v1/sweep?ensemble=hurricane",
	"/v1/sweep?ensemble=hurricane&scenario=intrusion",
	"/v1/sweep?ensemble=hurricane&scenario=isolation",
	"/v1/sweep?ensemble=hurricane&scenario=both",
	"/v1/sweep?config=6%2B6%2B6",
	"/v1/sweep?config=6%2B6%2B6&config=2",
	"/v1/sweep?config=2&config=6%2B6%2B6&primary=honolulu-cc",
}

// TestRouterStableSharding checks every sweep over one view lands on
// the same worker, and that the response is tagged with that worker.
func TestRouterStableSharding(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{}, a, b)
	first := do(t, rt, http.MethodGet, "/v1/sweep", "")
	if first.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", first.Code, first.Body.String())
	}
	home := first.Header().Get("X-Shard-Backend")
	if home == "" {
		t.Fatal("response missing X-Shard-Backend")
	}
	for i := 0; i < 10; i++ {
		w := do(t, rt, http.MethodGet, viewSweeps[i], "")
		if got := w.Header().Get("X-Shard-Backend"); got != home {
			t.Fatalf("request %d landed on backend %s, home is %s", i, got, home)
		}
	}
	total := a.sweeps.Load() + b.sweeps.Load()
	if a.sweeps.Load() != total && b.sweeps.Load() != total {
		t.Fatalf("sweeps split across workers: a=%d b=%d", a.sweeps.Load(), b.sweeps.Load())
	}
}

// TestRouterSlowProbeStaysHealthy checks a worker whose health probe
// answers slower than the probe period is not marked down: each probe
// is bounded by a floor well above the period, so a worker busy
// generating an ensemble stays healthy and keeps receiving its keys
// instead of losing them to a worker that may not hold their data.
func TestRouterSlowProbeStaysHealthy(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	for _, f := range []*fakeWorker{a, b} {
		f.healthDelay.Store(int64(100 * time.Millisecond))
	}
	rt := newTestRouter(t, Options{HealthInterval: 20 * time.Millisecond}, a, b)
	home := do(t, rt, http.MethodGet, "/v1/sweep", "").Header().Get("X-Shard-Backend")
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for _, be := range rt.backends {
			if !be.healthy.Load() {
				t.Fatalf("backend %d marked unhealthy by a slow probe", be.index)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, url := range viewSweeps {
		w := do(t, rt, http.MethodGet, url, "")
		if got := w.Header().Get("X-Shard-Backend"); w.Code != http.StatusOK || got != home {
			t.Fatalf("request %d: status %d from backend %s, home is %s", i, w.Code, got, home)
		}
	}
}

// TestRouterRejectsLocally checks the shared read parse fails
// malformed requests at the router with the worker's envelope, without
// spending a backend round trip: a bad value, and a parameter the
// endpoint does not take.
func TestRouterRejectsLocally(t *testing.T) {
	a := newFakeWorker(t, 0)
	rt := newTestRouter(t, Options{}, a)
	for _, url := range []string{"/v1/sweep?scenario=bogus", "/v1/sweep?scenario=both&bogus=1", "/v1/figure/9?bogus=1"} {
		w := do(t, rt, http.MethodGet, url, "")
		if w.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400: %s", url, w.Code, w.Body.String())
		}
		var body struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Error.Code != "bad_request" {
			t.Fatalf("GET %s: error code %q, want bad_request", url, body.Error.Code)
		}
	}
	if n := a.queries.Load(); n != 0 {
		t.Fatalf("malformed reads reached a worker %d times", n)
	}
}

// TestRouterFailsOver checks a 500 from the home worker retries onto
// the survivor and the client still gets a correct answer.
func TestRouterFailsOver(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{}, a, b)
	home := do(t, rt, http.MethodGet, "/v1/sweep", "").Header().Get("X-Shard-Backend")
	workers := []*fakeWorker{a, b}
	homeIdx := 0
	if home == "1" {
		homeIdx = 1
	}
	workers[homeIdx].fail.Store(true)

	w := do(t, rt, http.MethodGet, "/v1/sweep", "")
	if w.Code != http.StatusOK {
		t.Fatalf("failover sweep: %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Shard-Backend"); got == home {
		t.Fatalf("response still from failed backend %s", got)
	}
	if rt.retries.Value() == 0 {
		t.Fatal("retries counter did not move")
	}
}

// TestRouterAllBackendsDown checks the typed backend_unavailable
// verdict when the whole pool fails.
func TestRouterAllBackendsDown(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{}, a, b)
	a.fail.Store(true)
	b.fail.Store(true)
	w := do(t, rt, http.MethodGet, "/v1/sweep", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "backend_unavailable" {
		t.Fatalf("error code %q, want backend_unavailable", body.Error.Code)
	}
	if rt.noBackend.Value() == 0 {
		t.Fatal("no_backend counter did not move")
	}
}

// TestRouterJobStickiness checks a submission's job route is learned
// and polls go to the owning worker; unknown jobs broadcast to a 404.
func TestRouterJobStickiness(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{}, a, b)
	w := do(t, rt, http.MethodPost, "/v1/placement/search", `{"k":2}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", w.Code, w.Body.String())
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	owner := w.Header().Get("X-Shard-Backend")
	for i := 0; i < 3; i++ {
		pw := do(t, rt, http.MethodGet, "/v1/placement/jobs/"+sub.JobID, "")
		if pw.Code != http.StatusOK {
			t.Fatalf("poll %d: %d: %s", i, pw.Code, pw.Body.String())
		}
		if got := pw.Header().Get("X-Shard-Backend"); got != owner {
			t.Fatalf("poll answered by %s, owner is %s", got, owner)
		}
	}
	if nw := do(t, rt, http.MethodGet, "/v1/placement/jobs/nope", ""); nw.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404: %s", nw.Code, nw.Body.String())
	}
}

// TestRouterJobRelocation checks the broadcast fallback: a job that
// moved to a worker the router never learned about (a warm handoff) is
// still found.
func TestRouterJobRelocation(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{}, a, b)
	b.ownJob("inherited-1")
	w := do(t, rt, http.MethodGet, "/v1/placement/jobs/inherited-1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("relocated poll: %d: %s", w.Code, w.Body.String())
	}
	// The broadcast should have re-learned the route.
	if idx, ok := rt.jobs.lookup("inherited-1"); !ok || rt.backends[idx].base != b.srv.URL {
		t.Fatalf("route not learned from broadcast (ok=%v idx=%d)", ok, idx)
	}
}

// TestRouterBatching holds the home worker's sweep open, fires
// concurrent identical sweeps, and checks exactly one reached the
// worker while the rest joined the leader's call.
func TestRouterBatching(t *testing.T) {
	a := newFakeWorker(t, 0)
	rt := newTestRouter(t, Options{}, a)
	gate := make(chan struct{})
	a.setGate(gate)

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(t, rt, http.MethodGet, "/v1/sweep", "").Code
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.memo.joined.Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("joined=%d after 5s, want %d", rt.memo.joined.Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := a.sweeps.Load(); got != 1 {
		t.Fatalf("worker served %d sweeps, want 1", got)
	}
	if l := rt.memo.leaders.Value(); l != 1 {
		t.Fatalf("batch_leaders = %d, want 1", l)
	}
}

// TestRouterHealthEndpoints checks healthz reports the pool and
// readyz tracks backend health.
func TestRouterHealthEndpoints(t *testing.T) {
	a := newFakeWorker(t, 0)
	rt := newTestRouter(t, Options{HealthInterval: 30 * time.Millisecond}, a)
	w := do(t, rt, http.MethodGet, "/v1/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	var h struct {
		HealthyBackends int `json:"healthy_backends"`
		Backends        []struct {
			Ensembles map[string]string `json:"ensembles"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.HealthyBackends != 1 {
		t.Fatalf("healthy_backends = %d, want 1", h.HealthyBackends)
	}
	if h.Backends[0].Ensembles["hurricane"] != "00000000cafef00d" {
		t.Fatalf("fingerprints not learned: %+v", h.Backends[0].Ensembles)
	}
	if w := do(t, rt, http.MethodGet, "/v1/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz: %d", w.Code)
	}
	// Kill the worker; readyz must flip once the probe notices.
	a.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w := do(t, rt, http.MethodGet, "/v1/readyz", ""); w.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz still ok 5s after the pool died")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mw := do(t, rt, http.MethodGet, "/v1/metrics", "")
	if mw.Code != http.StatusOK || !strings.Contains(mw.Body.String(), "shard_batch_leaders") ||
		!strings.Contains(mw.Body.String(), "shard_memo_hits") {
		t.Fatalf("metrics missing shard counters: %d: %.200s", mw.Code, mw.Body.String())
	}
}

// TestRouterHedging holds the home worker open past the hedge delay
// and checks the second worker answers.
func TestRouterHedging(t *testing.T) {
	a, b := newFakeWorker(t, 0), newFakeWorker(t, 1)
	rt := newTestRouter(t, Options{Hedge: 20 * time.Millisecond}, a, b)
	home := do(t, rt, http.MethodGet, "/v1/sweep", "").Header().Get("X-Shard-Backend")
	workers := []*fakeWorker{a, b}
	homeIdx := 0
	if home == "1" {
		homeIdx = 1
	}
	gate := make(chan struct{})
	defer close(gate)
	workers[homeIdx].setGate(gate)

	w := do(t, rt, http.MethodGet, "/v1/sweep", "")
	if w.Code != http.StatusOK {
		t.Fatalf("hedged sweep: %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Shard-Backend"); got == home {
		t.Fatalf("hedged response came from the stalled home %s", got)
	}
	if rt.hedges.Value() == 0 {
		t.Fatal("hedges counter did not move")
	}
}

// TestNewRejectsBadBackends checks that a backend list the router
// cannot route to fails at start-up instead of turning every routed
// request into a 503.
func TestNewRejectsBadBackends(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backends []string
		want     string // substring of the error; "" = accepted
	}{
		{"none", nil, "no backends"},
		{"empty", []string{"127.0.0.1:1", " "}, "backend 1 is empty"},
		{"duplicate", []string{"127.0.0.1:1", "http://127.0.0.1:1"}, "duplicate backend"},
		{"unparsable", []string{"http://[::1"}, "backend 0"},
		{"no host", []string{"http://"}, "not an http(s)://host:port URL"},
		{"other scheme", []string{"ftp://127.0.0.1:1"}, "not an http(s)://host:port URL"},
		{"bare host:port", []string{"127.0.0.1:1", "http://[::1]:2/"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(Options{Backends: tc.backends, HealthInterval: time.Hour})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New(%q) = %v, want accepted", tc.backends, err)
				}
				rt.Close()
				return
			}
			if err == nil {
				rt.Close()
				t.Fatalf("New(%q) accepted, want error containing %q", tc.backends, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%q) = %v, want error containing %q", tc.backends, err, tc.want)
			}
		})
	}
}

// TestRouterDeadline checks that an unhedged read whose backend
// outlives the request deadline answers the typed 504 timeout, not a
// backend_unavailable failover verdict.
func TestRouterDeadline(t *testing.T) {
	a := newFakeWorker(t, 0)
	rt := newTestRouter(t, Options{Timeout: 50 * time.Millisecond}, a)
	gate := make(chan struct{})
	defer close(gate)
	a.setGate(gate)
	w := do(t, rt, http.MethodGet, "/v1/sweep", "")
	if w.Code != http.StatusGatewayTimeout || !strings.Contains(w.Body.String(), `"timeout"`) {
		t.Fatalf("stalled sweep: %d: %s, want 504 timeout", w.Code, w.Body.String())
	}
}

// TestRouterDefaultEnsembleFixedAtStart routes a query that names no
// ensemble to a real worker started with one. After another client's
// generation job commits a second ensemble there, the router still
// resolves the unnamed query to the worker's default, by fingerprint,
// and the worker still answers it.
func TestRouterDefaultEnsembleFixedAtStart(t *testing.T) {
	enableObs(t)
	ens, inv, err := testEnsemble(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(map[string]serve.Ensemble{"hurricane": ens}, inv, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	rt, err := New(Options{Backends: []string{srv.URL}, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	awaitHealthy(t, rt)
	const unnamed, named = "/v1/sweep?scenario=both", "/v1/sweep?scenario=both&ensemble=hurricane"
	if w := do(t, rt, http.MethodGet, unnamed, ""); w.Code != http.StatusOK {
		t.Fatalf("unnamed sweep = %d: %s", w.Code, w.Body.String())
	}

	_, userEnsemble := runUserScenario(t, rt.Handler(), 4, 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := rt.backends[0].fingerprint(userEnsemble); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never learned %s", userEnsemble)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w := do(t, rt, http.MethodGet, unnamed, "")
	if want := do(t, rt, http.MethodGet, named, ""); w.Code != http.StatusOK || w.Body.String() != want.Body.String() {
		t.Fatalf("unnamed sweep after another client's generation = %d: %s", w.Code, w.Body.String())
	}
	fp, _ := rt.backends[0].fingerprint("")
	if want, _ := rt.backends[0].fingerprint("hurricane"); fp != want || fp == "" {
		t.Fatalf("unnamed ensemble resolves to %q, want hurricane's %q", fp, want)
	}
}
