package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// fixture builds a 12-realization synthetic ensemble over the paper's
// four Oahu placement assets, plus a matching inventory:
//
//   - honolulu-cc floods in realizations 8-11 (coastal primary)
//   - waiau-plant floods whenever honolulu-cc does (correlated)
//   - kahe-plant floods only in realization 11
//   - drfortress-dc never floods
func fixture(t testing.TB) (*hazard.Ensemble, *assets.Inventory) {
	t.Helper()
	ids := []string{assets.HonoluluCC, assets.Waiau, assets.Kahe, assets.DRFortress}
	cfg := hazard.OahuScenario()
	cfg.Realizations = 12
	rows := make([][]float64, cfg.Realizations)
	for r := range rows {
		rows[r] = []float64{0, 0, 0, 0}
		if r >= 8 {
			rows[r][0] = 1 // honolulu-cc
			rows[r][1] = 1 // waiau-plant
		}
		if r == 11 {
			rows[r][2] = 1 // kahe-plant
		}
	}
	e, err := hazard.NewEnsembleFromDepths(cfg, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	list := make([]assets.Asset, len(ids))
	for i, id := range ids {
		list[i] = assets.Asset{
			ID: id, Name: id, Type: assets.ControlCenter,
			Location:             geo.Point{Lat: 21.3, Lon: -157.9},
			ControlSiteCandidate: true,
		}
	}
	inv, err := assets.NewInventory(list)
	if err != nil {
		t.Fatal(err)
	}
	return e, inv
}

// newTestServer builds a server over the fixture with a fresh enabled
// recorder, so each test reads its own counters.
func newTestServer(t testing.TB, opt Options) (*Server, *obs.Recorder) {
	t.Helper()
	e, inv := fixture(t)
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	s, err := New(map[string]Ensemble{"oahu": e}, inv, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// get issues one request against the handler and decodes the JSON body.
func get(t testing.TB, h http.Handler, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", url, w.Body.String(), err)
	}
	return w.Code, body
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Options{CacheEntries: 7})
	code, body := get(t, s.Handler(), "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if body["status"] != "ok" {
		t.Errorf("status field = %v, want ok", body["status"])
	}
	ens := body["ensembles"].([]any)
	if len(ens) != 1 {
		t.Fatalf("ensembles = %d, want 1", len(ens))
	}
	e0 := ens[0].(map[string]any)
	if e0["name"] != "oahu" || e0["realizations"] != float64(12) || e0["assets"] != float64(4) {
		t.Errorf("ensemble entry = %v", e0)
	}
	if fp := e0["fingerprint"].(string); len(fp) != 16 || fp == "0000000000000000" {
		t.Errorf("fingerprint = %q, want 16 hex digits", fp)
	}
	cache := body["cache"].(map[string]any)
	if cache["capacity"] != float64(7) || cache["entries"] != float64(0) {
		t.Errorf("cache = %v, want capacity 7, entries 0", cache)
	}
}

// outcomesMatch compares rendered outcomes against analysis outcomes:
// same configs in order, and exact state counts (the bit-identity
// contract: serving runs the same engine over the same bits).
func outcomesMatch(t *testing.T, got []any, want []analysis.Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("outcomes = %d, want %d", len(got), len(want))
	}
	for i, g := range got {
		o := g.(map[string]any)
		w := want[i]
		if o["config"] != w.Config.Name {
			t.Errorf("outcome %d config = %v, want %s", i, o["config"], w.Config.Name)
		}
		if o["scenario"] != w.Scenario.String() {
			t.Errorf("outcome %d scenario = %v, want %s", i, o["scenario"], w.Scenario)
		}
		counts := o["counts"].(map[string]any)
		for _, st := range opstate.States() {
			if counts[st.String()] != float64(w.Profile.Count(st)) {
				t.Errorf("outcome %d count(%v) = %v, want %d",
					i, st, counts[st.String()], w.Profile.Count(st))
			}
		}
	}
}

func TestSweepMatchesAnalysis(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	e, _ := fixture(t)
	for _, name := range []string{"hurricane", "intrusion", "isolation", "both"} {
		scenario, err := threat.ParseScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		configs, err := topology.StandardConfigs(analysis.PlacementHWD())
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.RunConfigs(e, configs, scenario)
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, s.Handler(), "/v1/sweep?scenario="+name)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %v", name, code, body)
		}
		if body["ensemble"] != "oahu" || body["scenario"] != scenario.String() {
			t.Errorf("%s: envelope = %v", name, body)
		}
		outcomesMatch(t, body["outcomes"].([]any), want)
	}
}

func TestSweepPostSubsetAndPlacement(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	e, _ := fixture(t)
	reqBody := `{
		"scenario": "intrusion",
		"configs": ["6", "6+6+6"],
		"primary": "honolulu-cc",
		"second": "kahe-plant",
		"data_center": "drfortress-dc"
	}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(reqBody))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want, err := analysis.RunConfigs(e, []topology.Config{
		topology.NewConfig6("honolulu-cc"),
		topology.NewConfig666("honolulu-cc", "kahe-plant", "drfortress-dc"),
	}, threat.HurricaneIntrusion)
	if err != nil {
		t.Fatal(err)
	}
	outcomesMatch(t, body["outcomes"].([]any), want)
	p := body["placement"].(map[string]any)
	if p["second"] != "kahe-plant" {
		t.Errorf("placement second = %v, want kahe-plant", p["second"])
	}
}

func TestFiguresMatchAnalysis(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	e, _ := fixture(t)
	cs, err := analysis.NewCaseStudy(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range analysis.PaperFigures() {
		want, err := cs.EvaluateFigure(fig)
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, s.Handler(), fmt.Sprintf("/v1/figure/%d", fig.ID))
		if code != http.StatusOK {
			t.Fatalf("figure %d: status = %d, body %v", fig.ID, code, body)
		}
		if body["figure"] != float64(fig.ID) || body["title"] != fig.Title {
			t.Errorf("figure %d: envelope = %v", fig.ID, body)
		}
		outcomesMatch(t, body["outcomes"].([]any), want.Outcomes)
	}
}

func TestPlacementMatchesSearch(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	e, inv := fixture(t)
	want, err := placement.SearchPairs(placement.Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   assets.HonoluluCC,
		Scenario:  threat.HurricaneIntrusion,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, s.Handler(),
		"/v1/placement?primary=honolulu-cc&scenario=intrusion")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	cands := body["candidates"].([]any)
	if len(cands) != len(want) {
		t.Fatalf("candidates = %d, want %d", len(cands), len(want))
	}
	if body["total_candidates"] != float64(len(want)) {
		t.Errorf("total_candidates = %v, want %d", body["total_candidates"], len(want))
	}
	for i, c := range cands {
		cand := c.(map[string]any)
		p := cand["placement"].(map[string]any)
		if p["second"] != want[i].Placement.Second || p["data_center"] != want[i].Placement.DataCenter {
			t.Errorf("rank %d placement = %v, want %+v", i, p, want[i].Placement)
		}
		if cand["score"] != want[i].Score {
			t.Errorf("rank %d score = %v, want %v", i, cand["score"], want[i].Score)
		}
	}

	// Fixed data center + limit: the second-site search, truncated.
	wantSecond, err := placement.SearchSecondSite(placement.Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   assets.HonoluluCC,
		Scenario:  threat.Hurricane,
	}, assets.DRFortress)
	if err != nil {
		t.Fatal(err)
	}
	code, body = get(t, s.Handler(),
		"/v1/placement?primary=honolulu-cc&data_center=drfortress-dc&limit=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	cands = body["candidates"].([]any)
	if len(cands) != 1 {
		t.Fatalf("limited candidates = %d, want 1", len(cands))
	}
	if body["total_candidates"] != float64(len(wantSecond)) {
		t.Errorf("total_candidates = %v, want %d", body["total_candidates"], len(wantSecond))
	}
	best := cands[0].(map[string]any)["placement"].(map[string]any)
	if best["second"] != wantSecond[0].Placement.Second {
		t.Errorf("best second = %v, want %v", best["second"], wantSecond[0].Placement.Second)
	}
}

func TestReportEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if code, _ := get(t, s.Handler(), "/v1/sweep"); code != http.StatusOK {
		t.Fatalf("warmup sweep status = %d", code)
	}
	code, body := get(t, s.Handler(), "/v1/report")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["schema"] != "compoundthreat/run-report/v2" {
		t.Errorf("schema = %v, want compoundthreat/run-report/v2", body["schema"])
	}
	counters := body["counters"].(map[string]any)
	if counters["serve.requests.sweep"] != float64(1) {
		t.Errorf("serve.requests.sweep = %v, want 1", counters["serve.requests.sweep"])
	}
	if counters["serve.cache_misses"] != float64(1) {
		t.Errorf("serve.cache_misses = %v, want 1", counters["serve.cache_misses"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodDelete, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/sweep = %d, want 405", w.Code)
	}
}

// TestRunGracefulDrain exercises the SIGTERM path: with a request held
// in flight by a gated ensemble, canceling the run context must stop
// the listener immediately but let the in-flight request finish.
func TestRunGracefulDrain(t *testing.T) {
	stub := newStubEnsemble()
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	s, err := New(map[string]Ensemble{"stub": stub.e}, stub.inv, Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	var diag strings.Builder
	go func() { runErr <- Run(ctx, ln, s.Handler(), 10*time.Second, &diag) }()

	stub.close()
	base := "http://" + ln.Addr().String()
	type resp struct {
		code int
		body string
		err  error
	}
	inflight := make(chan resp, 1)
	go func() {
		r, err := http.Get(base + "/v1/sweep?config=2&primary=a&second=b&data_center=c")
		if err != nil {
			inflight <- resp{err: err}
			return
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		inflight <- resp{code: r.StatusCode, body: string(b)}
	}()
	stub.awaitCompile(t)

	cancel() // "SIGTERM": stop accepting, drain in-flight work
	// The listener must be closed promptly even though a request is
	// still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}

	stub.open() // let the in-flight compile finish
	select {
	case r := <-inflight:
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request = %d, body %s", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not complete")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run = %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	if !strings.Contains(diag.String(), "draining") {
		t.Errorf("diag = %q, want a draining line", diag.String())
	}
}

// TestRunDrainTimeout: when in-flight work outlives the drain window,
// Run force-closes and reports ErrDrainTimeout.
func TestRunDrainTimeout(t *testing.T) {
	stub := newStubEnsemble()
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	s, err := New(map[string]Ensemble{"stub": stub.e}, stub.inv, Options{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- Run(ctx, ln, s.Handler(), 50*time.Millisecond, nil) }()

	stub.close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := http.Get("http://" + ln.Addr().String() + "/v1/sweep?config=2&primary=a&second=b&data_center=c")
		if err == nil {
			r.Body.Close()
		}
	}()
	stub.awaitCompile(t)
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, ErrDrainTimeout) {
			t.Fatalf("Run = %v, want ErrDrainTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	stub.open() // unblock the detached compile so the test can exit cleanly
	<-done
}
