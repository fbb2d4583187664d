package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/store"
)

// testTopologyJSON renders a small valid upload document: a 4-vertex
// synthetic island (the hazard package's TestIsland) carrying two
// control-center candidates and one inland data center, so the standard
// sweep configurations have a full placement to evaluate.
func testTopologyJSON(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"terrain": {
			"origin": {"lat": 21, "lon": -158},
			"coastline": [
				{"lat": 20.91, "lon": -158.097},
				{"lat": 20.91, "lon": -157.903},
				{"lat": 21.09, "lon": -157.903},
				{"lat": 21.09, "lon": -158.097}
			],
			"coastal_ramp_slope": 0.004,
			"coastal_plain_width_meters": 3000,
			"inland_slope": 0.02,
			"offshore_slope": 0.02
		},
		"assets": [
			{"id": "south-cc", "type": "control-center", "location": {"lat": 20.913, "lon": -158}, "ground_elevation_meters": 0.6, "control_site_candidate": true},
			{"id": "east-cc", "type": "control-center", "location": {"lat": 21.0, "lon": -157.91}, "ground_elevation_meters": 1.2, "control_site_candidate": true},
			{"id": "inland-dc", "type": "data-center", "location": {"lat": 21.0, "lon": -158}, "ground_elevation_meters": 60, "control_site_candidate": true}
		]
	}`, name)
}

// testEnsembleJSON renders generation parameters against topologyID:
// a deterministic small Monte-Carlo run (the TestIsland storm).
func testEnsembleJSON(topologyID string, realizations int, seed int64) string {
	return fmt.Sprintf(`{
		"topology": %q,
		"realizations": %d,
		"seed": %d,
		"base": {
			"reference_point": {"lat": 20.55, "lon": -158.35},
			"heading_deg": 315,
			"forward_speed_ms": 5,
			"duration_hours": 24,
			"central_pressure_hpa": 955,
			"rmax_meters": 40000,
			"holland_b": 1.6
		},
		"spread": {
			"track_offset_sigma_meters": 30000,
			"along_track_sigma_meters": 15000,
			"heading_sigma_deg": 5,
			"pressure_sigma_hpa": 8,
			"rmax_sigma_fraction": 0.2,
			"speed_sigma_fraction": 0.15
		}
	}`, topologyID, realizations, seed)
}

// post issues one JSON POST against the handler and decodes the body.
func uploadPost(t testing.TB, h http.Handler, url, body string, hdr map[string]string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s: non-JSON body %q: %v", url, w.Body.String(), err)
	}
	return w.Code, out
}

// wantAPIError asserts a typed error envelope with the given code.
func wantAPIError(t testing.TB, status int, body map[string]any, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d (body %v), want %d", status, body, wantStatus)
	}
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("body %v, want an error envelope", body)
	}
	if e["code"] != wantCode {
		t.Errorf("error code = %v, want %s", e["code"], wantCode)
	}
}

// awaitGenJob polls GET /v1/ensembles/jobs/{id} until the job leaves
// the running state, returning the final poll body.
func awaitGenJob(t testing.TB, h http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get(t, h, "/v1/ensembles/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll job %s: status = %d, body %v", id, code, body)
		}
		if body["status"] != jobRunning {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running at deadline: %v", id, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTopologyUploadLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	doc := testTopologyJSON("test-island")

	code, body := uploadPost(t, s.Handler(), "/v1/topologies", doc, nil)
	if code != http.StatusCreated {
		t.Fatalf("first upload = %d, body %v", code, body)
	}
	if body["created"] != true || body["assets"] != float64(3) || body["vertices"] != float64(4) {
		t.Errorf("upload response = %v", body)
	}
	id, _ := body["topology_id"].(string)
	if len(id) != 16 {
		t.Fatalf("topology_id = %q, want 16 hex digits", id)
	}

	// Identical re-upload is idempotent: same id, created=false, 200.
	code, body = uploadPost(t, s.Handler(), "/v1/topologies", doc, nil)
	if code != http.StatusOK || body["created"] != false || body["topology_id"] != id {
		t.Errorf("re-upload = %d %v, want 200 created=false id=%s", code, body, id)
	}

	// Whitespace-different but semantically identical documents share
	// the id too: the fingerprint covers the canonical re-marshal.
	var generic any
	if err := json.Unmarshal([]byte(doc), &generic); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	code, body = uploadPost(t, s.Handler(), "/v1/topologies", string(compact), nil)
	if code != http.StatusOK || body["topology_id"] != id {
		t.Errorf("compact re-upload = %d %v, want 200 with id %s", code, body, id)
	}

	code, body = get(t, s.Handler(), "/v1/topologies")
	if code != http.StatusOK {
		t.Fatalf("list = %d, body %v", code, body)
	}
	list := body["topologies"].([]any)
	if len(list) != 1 || list[0].(map[string]any)["topology_id"] != id {
		t.Errorf("topology list = %v, want the uploaded id", list)
	}

	_, health := get(t, s.Handler(), "/v1/healthz")
	if health["topologies"] != float64(1) {
		t.Errorf("healthz topologies = %v, want 1", health["topologies"])
	}
}

func TestTopologyUploadValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	valid := testTopologyJSON("ok")
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"name": "x"`},
		{"unknown field", strings.Replace(valid, `"name"`, `"bogus_field": 1, "name"`, 1)},
		{"trailing data", valid + ` {"more": true}`},
		{"missing name", strings.Replace(valid, `"ok"`, `""`, 1)},
		{"two-vertex coastline", `{"name": "x", "terrain": {"origin": {"lat": 21, "lon": -158}, "coastline": [{"lat": 1, "lon": 2}, {"lat": 3, "lon": 4}], "coastal_ramp_slope": 0.004, "coastal_plain_width_meters": 3000, "inland_slope": 0.02, "offshore_slope": 0.02}, "assets": [{"id": "a", "type": "substation", "location": {"lat": 1, "lon": 2}, "ground_elevation_meters": 1}]}`},
		{"no assets", valid[:strings.Index(valid, `"assets"`)] + `"assets": []}`},
		{"bad asset type", strings.Replace(valid, `"control-center"`, `"space-station"`, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := uploadPost(t, s.Handler(), "/v1/topologies", tc.body, nil)
			wantAPIError(t, code, body, http.StatusUnprocessableEntity, "validation_failed")
		})
	}
	if len(s.uploads.topologyList()) != 0 {
		t.Errorf("rejected uploads were indexed: %v", s.uploads.topologyList())
	}
}

func TestUploadPayloadTooLarge(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxUploadBytes: 64})
	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("big"), nil)
	wantAPIError(t, code, body, http.StatusRequestEntityTooLarge, "payload_too_large")

	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", testEnsembleJSON(strings.Repeat("0", 16), 4, 1), nil)
	wantAPIError(t, code, body, http.StatusRequestEntityTooLarge, "payload_too_large")
}

func TestUploadObjectQuota(t *testing.T) {
	s, rec := newTestServer(t, Options{QuotaObjects: 1})
	hdr := map[string]string{"X-Client-ID": "tester"}

	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("first"), hdr)
	if code != http.StatusCreated {
		t.Fatalf("first upload = %d, body %v", code, body)
	}
	code, body = uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("second"), hdr)
	wantAPIError(t, code, body, http.StatusTooManyRequests, "quota_exceeded")

	// Re-uploading the stored topology costs nothing, and a different
	// client still has budget.
	if code, body = uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("first"), hdr); code != http.StatusOK {
		t.Errorf("idempotent re-upload = %d %v, want 200", code, body)
	}
	other := map[string]string{"X-Client-ID": "other"}
	if code, body = uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("second"), other); code != http.StatusCreated {
		t.Errorf("other client upload = %d %v, want 201", code, body)
	}
	if got := rec.Counter("serve.uploads_quota_denied").Value(); got != 1 {
		t.Errorf("uploads_quota_denied = %d, want 1", got)
	}
}

func TestUploadByteQuota(t *testing.T) {
	s, _ := newTestServer(t, Options{QuotaBytes: 16})
	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("big"), nil)
	wantAPIError(t, code, body, http.StatusTooManyRequests, "quota_exceeded")
}

// TestEnsembleGenerateBitIdentity is the write-path acceptance test:
// an ensemble generated through the API must match a local
// hazard.Generate run byte-for-byte through /v1/sweep.
func TestEnsembleGenerateBitIdentity(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	doc := testTopologyJSON("bit-island")

	code, body := uploadPost(t, s.Handler(), "/v1/topologies", doc, nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	topoID := body["topology_id"].(string)

	params := testEnsembleJSON(topoID, 12, 7)
	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %v", code, body)
	}
	jobID := body["job_id"].(string)
	ensName := body["ensemble"].(string)
	if !strings.HasPrefix(ensName, "u-") {
		t.Fatalf("ensemble name = %q, want u- prefix", ensName)
	}

	final := awaitGenJob(t, s.Handler(), jobID)
	if final["status"] != jobDone {
		t.Fatalf("job finished %v, want done (body %v)", final["status"], final)
	}
	prog := final["progress"].(map[string]any)
	if prog["realizations_done"] != float64(12) || prog["realizations"] != float64(12) {
		t.Errorf("final progress = %v, want 12/12", prog)
	}
	res := final["result"].(map[string]any)
	if res["ensemble"] != ensName || res["assets"] != float64(3) {
		t.Errorf("result = %v", res)
	}

	// Reference path: the same documents through the local generator.
	topo, err := parseTopologyUpload([]byte(doc), s.opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeEnsembleParams([]byte(params), s.opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topo.gen.Generate(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	ref, err := New(map[string]Ensemble{ensName: want}, topo.inv, Options{})
	if err != nil {
		t.Fatal(err)
	}

	sweep := "/v1/sweep?ensemble=" + ensName + "&primary=south-cc&second=east-cc&data_center=inland-dc"
	for _, scenario := range []string{"", "&scenario=both"} {
		gotReq := httptest.NewRequest(http.MethodGet, sweep+scenario, nil)
		gotW := httptest.NewRecorder()
		s.Handler().ServeHTTP(gotW, gotReq)
		wantReq := httptest.NewRequest(http.MethodGet, sweep+scenario, nil)
		wantW := httptest.NewRecorder()
		ref.Handler().ServeHTTP(wantW, wantReq)
		if gotW.Code != http.StatusOK || wantW.Code != http.StatusOK {
			t.Fatalf("sweep%s status: api=%d ref=%d (api body %s)", scenario, gotW.Code, wantW.Code, gotW.Body.String())
		}
		if gotW.Body.String() != wantW.Body.String() {
			t.Errorf("sweep%s over the API-generated ensemble diverges from the local run:\napi:  %s\nref:  %s",
				scenario, gotW.Body.String(), wantW.Body.String())
		}
	}

	// Resubmission of identical parameters answers done immediately.
	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusOK || body["status"] != jobDone || body["coalesced"] != true {
		t.Errorf("resubmit = %d %v, want 200 done coalesced", code, body)
	}
	if body["job_id"] != jobID {
		t.Errorf("resubmit job_id = %v, want %s", body["job_id"], jobID)
	}
}

// TestDefaultEnsembleFixedAtStart: a server started with one ensemble
// answers queries that name none from it, and keeps doing so after
// another client's generation job commits a second ensemble.
func TestDefaultEnsembleFixedAtStart(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	sweep := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweep?scenario=both", nil))
		return w
	}
	before := sweep()
	if before.Code != http.StatusOK {
		t.Fatalf("unnamed sweep = %d, body %s", before.Code, before.Body.String())
	}

	code, body := uploadPost(t, h, "/v1/topologies", testTopologyJSON("other-island"), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	code, body = uploadPost(t, h, "/v1/ensembles", testEnsembleJSON(body["topology_id"].(string), 4, 3), nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %v", code, body)
	}
	if final := awaitGenJob(t, h, body["job_id"].(string)); final["status"] != jobDone {
		t.Fatalf("job finished %v, want done", final)
	}

	after := sweep()
	if after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("unnamed sweep after another client's generation = %d, body %s", after.Code, after.Body.String())
	}
	_, health := get(t, h, "/v1/healthz")
	if n := len(health["ensembles"].([]any)); n != 2 || health["default_ensemble"] != "oahu" {
		t.Fatalf("healthz lists %d ensembles, default %v; want 2, oahu", n, health["default_ensemble"])
	}
}

func TestEnsembleSubmitValidation(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxUploadRealizations: 10})
	code, body := uploadPost(t, s.Handler(), "/v1/ensembles", testEnsembleJSON("ffffffffffffffff", 4, 1), nil)
	wantAPIError(t, code, body, http.StatusUnprocessableEntity, "validation_failed")

	code, body = uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("caps"), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	id := body["topology_id"].(string)
	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", testEnsembleJSON(id, 100, 1), nil)
	wantAPIError(t, code, body, http.StatusUnprocessableEntity, "validation_failed")

	code, body = get(t, s.Handler(), "/v1/ensembles/jobs/nope")
	wantAPIError(t, code, body, http.StatusNotFound, "not_found")
}

func TestEnsembleSubmitCoalesces(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("coalesce"), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	params := testEnsembleJSON(body["topology_id"].(string), 200, 3)
	code, first := uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %v", code, first)
	}
	// Whether the run is still in flight (202, registry coalesce) or
	// already committed (200, synthetic done job), the second submit
	// must reuse the same job.
	code, second := uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit = %d, body %v", code, second)
	}
	if second["job_id"] != first["job_id"] || second["coalesced"] != true {
		t.Errorf("resubmit = %v, want coalesced onto job %v", second, first["job_id"])
	}
	if final := awaitGenJob(t, s.Handler(), first["job_id"].(string)); final["status"] != jobDone {
		t.Fatalf("job finished %v, want done", final["status"])
	}
}

func TestUploadShuttingDown(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	s.Close()
	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("late"), nil)
	wantAPIError(t, code, body, http.StatusServiceUnavailable, "shutting_down")
	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", testEnsembleJSON(strings.Repeat("0", 16), 4, 1), nil)
	wantAPIError(t, code, body, http.StatusServiceUnavailable, "shutting_down")
}

// TestEnsembleCloseCancelsRunning: Close must cancel an in-flight
// generation and leave the job pollable in the canceled state.
func TestEnsembleCloseCancelsRunning(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("cancel"), nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	params := testEnsembleJSON(body["topology_id"].(string), 5000, 11)
	code, body = uploadPost(t, s.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %v", code, body)
	}
	j, ok := s.genjobs.get(body["job_id"].(string))
	if !ok {
		t.Fatal("submitted job not in registry")
	}
	s.Close()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish after Close")
	}
	state, _, _, jerr := j.snapshot()
	// The runner may have completed the commit before Close landed; any
	// other terminal state must be a cancellation.
	if state != jobCanceled && state != jobDone {
		t.Fatalf("state after Close = %s (err %v), want canceled", state, jerr)
	}
	if state == jobCanceled && jerr == nil {
		t.Error("canceled job carries no error")
	}
}

// TestUploadWarmRestart: a second server over the same store directory
// re-serves uploaded topologies and generated ensembles without
// re-upload, byte-identically.
func TestUploadWarmRestart(t *testing.T) {
	dir := t.TempDir()
	st1, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := newTestServer(t, Options{Store: st1})
	doc := testTopologyJSON("warm-island")
	code, body := uploadPost(t, s1.Handler(), "/v1/topologies", doc, nil)
	if code != http.StatusCreated {
		t.Fatalf("upload = %d, body %v", code, body)
	}
	topoID := body["topology_id"].(string)
	params := testEnsembleJSON(topoID, 8, 5)
	code, body = uploadPost(t, s1.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %v", code, body)
	}
	ensName := body["ensemble"].(string)
	if final := awaitGenJob(t, s1.Handler(), body["job_id"].(string)); final["status"] != jobDone {
		t.Fatalf("job finished %v, want done", final["status"])
	}
	sweep := "/v1/sweep?ensemble=" + ensName + "&primary=south-cc&second=east-cc&data_center=inland-dc"
	req := httptest.NewRequest(http.MethodGet, sweep, nil)
	w1 := httptest.NewRecorder()
	s1.Handler().ServeHTTP(w1, req)
	if w1.Code != http.StatusOK {
		t.Fatalf("sweep on first server = %d, body %s", w1.Code, w1.Body.String())
	}
	s1.Close()

	st2, cleaned, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cleaned != 0 {
		t.Errorf("reopen cleaned %d entries, want 0", cleaned)
	}
	s2, _ := newTestServer(t, Options{Store: st2})
	if n := len(s2.uploads.topologyList()); n != 1 {
		t.Fatalf("restarted server indexes %d topologies, want 1", n)
	}
	_, health := get(t, s2.Handler(), "/v1/healthz")
	names := make(map[string]bool)
	for _, e := range health["ensembles"].([]any) {
		names[e.(map[string]any)["name"].(string)] = true
	}
	if !names[ensName] {
		t.Fatalf("restarted healthz ensembles = %v, want %s", names, ensName)
	}
	// The imported ensemble does not change what a query naming none
	// reads.
	if code, body := get(t, s2.Handler(), "/v1/sweep?scenario=both"); code != http.StatusOK || body["ensemble"] != "oahu" {
		t.Fatalf("unnamed sweep on the restarted server = %d %v, want 200 over oahu", code, body)
	}

	w2 := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w2, httptest.NewRequest(http.MethodGet, sweep, nil))
	if w2.Code != http.StatusOK {
		t.Fatalf("sweep on restarted server = %d, body %s", w2.Code, w2.Body.String())
	}
	if w1.Body.String() != w2.Body.String() {
		t.Errorf("restarted sweep diverges:\nbefore: %s\nafter:  %s", w1.Body.String(), w2.Body.String())
	}

	// Resubmitting the identical request needs no regeneration: the
	// warm-restarted ensemble answers done via a synthetic job.
	code, body = uploadPost(t, s2.Handler(), "/v1/ensembles", params, nil)
	if code != http.StatusOK || body["status"] != jobDone {
		t.Fatalf("resubmit after restart = %d %v, want 200 done", code, body)
	}
	if final := awaitGenJob(t, s2.Handler(), body["job_id"].(string)); final["status"] != jobDone {
		t.Errorf("synthetic job polls %v, want done", final["status"])
	}
}
