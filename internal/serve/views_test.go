package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
)

// warmSweep issues one sweep so the server compiles and caches a view,
// and returns the response body for bit-identity comparisons.
func warmSweep(t *testing.T, s *Server) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("warm sweep: status %d: %s", w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// cachedKeys lists the server's cached view keys hottest-first via the
// /v1/views endpoint.
func cachedKeys(t *testing.T, s *Server) []string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/views", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/views: status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		CodecVersion int `json:"codec_version"`
		Views        []struct {
			Key string `json:"key"`
		} `json:"views"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.CodecVersion != engine.CompressedMatrixCodecVersion {
		t.Fatalf("codec_version = %d, want %d", body.CodecVersion, engine.CompressedMatrixCodecVersion)
	}
	keys := make([]string, len(body.Views))
	for i, v := range body.Views {
		keys[i] = v.Key
	}
	return keys
}

// exportView fetches one view in wire format, asserting the codec
// version header.
func exportView(t *testing.T, s *Server, key string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/views/export?key="+url.QueryEscape(key), nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("export: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(CodecVersionHeader); got != strconv.Itoa(engine.CompressedMatrixCodecVersion) {
		t.Fatalf("export %s = %q", CodecVersionHeader, got)
	}
	return w.Body.Bytes()
}

// importView posts one wire-encoded view, returning the response.
func importView(t *testing.T, s *Server, key string, wire []byte, version string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/views/import?key="+url.QueryEscape(key), bytes.NewReader(wire))
	req.Header.Set(CodecVersionHeader, version)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestViewExportImportRoundTrip exports the compiled sweep view from
// one server and imports it into a second server over the same
// ensemble, then asserts the second server answers the sweep
// bit-identically without ever compiling (zero cache misses).
func TestViewExportImportRoundTrip(t *testing.T) {
	src, _ := newTestServer(t, Options{})
	want := warmSweep(t, src)
	keys := cachedKeys(t, src)
	if len(keys) != 1 {
		t.Fatalf("cached keys = %v, want exactly one", keys)
	}
	wire := exportView(t, src, keys[0])

	dst, rec := newTestServer(t, Options{})
	w := importView(t, dst, keys[0], wire, strconv.Itoa(engine.CompressedMatrixCodecVersion))
	if w.Code != http.StatusOK {
		t.Fatalf("import: status %d: %s", w.Code, w.Body.String())
	}
	var out struct {
		Imported bool `json:"imported"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Imported {
		t.Fatal("import reported imported=false on a fresh cache")
	}
	got := warmSweep(t, dst)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep from imported view differs:\n got: %s\nwant: %s", got, want)
	}
	if misses := rec.Counter("serve.cache_misses").Value(); misses != 0 {
		t.Fatalf("imported-view sweep compiled locally: %d cache misses", misses)
	}
	if hits := rec.Counter("serve.cache_hits").Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestViewImportValidation covers the import guardrails: version
// header mismatch, malformed keys, unknown fingerprints, universe
// mismatches, and garbage bodies.
func TestViewImportValidation(t *testing.T) {
	src, _ := newTestServer(t, Options{})
	warmSweep(t, src)
	key := cachedKeys(t, src)[0]
	wire := exportView(t, src, key)

	dst, _ := newTestServer(t, Options{})
	cases := []struct {
		name    string
		key     string
		body    []byte
		version string
		status  int
		code    string
	}{
		{"bad version header", key, wire, "99", http.StatusBadRequest, "bad_request"},
		{"missing version header", key, wire, "", http.StatusBadRequest, "bad_request"},
		{"malformed key", "not-a-key", wire, "1", http.StatusBadRequest, "bad_request"},
		{"unknown fingerprint", "0123456789abcdef|honolulu-cc", wire, "1", http.StatusNotFound, "not_found"},
		{"garbage body", key, []byte("CTMXgarbage"), "1", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := importView(t, dst, tc.key, tc.body, tc.version)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			var body struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q", body.Error.Code, tc.code)
			}
		})
	}

	// A universe-mismatched key: valid fingerprint, wrong asset list.
	fp := key[:16]
	w := importView(t, dst, fp+"|honolulu-cc", wire, "1")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("universe mismatch accepted: status %d: %s", w.Code, w.Body.String())
	}

	// Importing the same key twice: second import is a no-op.
	if w := importView(t, dst, key, wire, "1"); w.Code != http.StatusOK {
		t.Fatalf("first import: %d: %s", w.Code, w.Body.String())
	}
	w = importView(t, dst, key, wire, "1")
	if w.Code != http.StatusOK {
		t.Fatalf("repeat import: %d: %s", w.Code, w.Body.String())
	}
	var out struct {
		Imported bool `json:"imported"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Imported {
		t.Fatal("repeat import reported imported=true")
	}
}

// TestReadyz asserts readiness flips to 503 shutting_down after Close.
func TestReadyz(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("ready server: status %d", w.Code)
	}
	s.Close()
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed server: status %d, want 503", w.Code)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("shutting_down")) {
		t.Fatalf("closed readyz body lacks shutting_down: %s", w.Body.String())
	}
}

// TestHandoff drains state from one live server into another over real
// HTTP: hottest views first, finished jobs included, and the successor
// then serves the handed-off sweep without compiling.
func TestHandoff(t *testing.T) {
	src, _ := newTestServer(t, Options{})
	want := warmSweep(t, src)
	// A second, colder view: a sweep over a sub-universe.
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep?config=6-6", nil)
	w := httptest.NewRecorder()
	s := src.Handler()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("sub-universe sweep: %d: %s", w.Code, w.Body.String())
	}
	// Touch the full sweep again so it is the hottest.
	warmSweep(t, src)
	keys := cachedKeys(t, src)
	if len(keys) != 2 {
		t.Fatalf("cached keys = %d, want 2", len(keys))
	}

	// Run a real placement search to completion so a finished job
	// exists to hand off.
	body := `{"k":1}`
	sreq := httptest.NewRequest(http.MethodPost, "/v1/placement/search", bytes.NewBufferString(body))
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, sreq)
	if sw.Code != http.StatusAccepted {
		t.Fatalf("search submit: %d: %s", sw.Code, sw.Body.String())
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	j, ok := src.jobs.get(sub.JobID)
	if !ok {
		t.Fatalf("job %q not registered", sub.JobID)
	}
	<-j.done
	pollURL := "/v1/placement/jobs/" + sub.JobID
	pw := httptest.NewRecorder()
	s.ServeHTTP(pw, httptest.NewRequest(http.MethodGet, pollURL, nil))
	if pw.Code != http.StatusOK {
		t.Fatalf("poll: %d: %s", pw.Code, pw.Body.String())
	}

	dst, rec := newTestServer(t, Options{})
	ts := httptest.NewServer(dst.Handler())
	defer ts.Close()
	rep, err := src.Handoff(context.Background(), ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Views != 2 || rep.Jobs != 1 {
		t.Fatalf("handoff report %+v, want 2 views and 1 job", rep)
	}

	// The successor serves the sweep bit-identically, without compiling.
	got := warmSweep(t, dst)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-handoff sweep differs:\n got: %s\nwant: %s", got, want)
	}
	if misses := rec.Counter("serve.cache_misses").Value(); misses != 0 {
		t.Fatalf("successor compiled locally: %d cache misses", misses)
	}

	// The successor answers polls for the inherited job identically.
	dw := httptest.NewRecorder()
	dst.Handler().ServeHTTP(dw, httptest.NewRequest(http.MethodGet, pollURL, nil))
	if dw.Code != http.StatusOK {
		t.Fatalf("successor poll: %d: %s", dw.Code, dw.Body.String())
	}
	var a, b map[string]any
	if err := json.Unmarshal(pw.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dw.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "age_seconds") // wall-clock, legitimately differs
	delete(b, "age_seconds")
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("successor poll differs:\n got: %s\nwant: %s", bj, aj)
	}

	// Handoff order: the hottest view must have been imported first.
	if first := cachedKeys(t, dst)[1]; first != keys[1] {
		// dst's LRU front is the most recently *used*; after the sweep
		// above, the full-universe view is front. The colder view must
		// still be present.
		t.Fatalf("cold view missing after handoff: %v", cachedKeys(t, dst))
	}
}

// TestHandoffJobsSurviveReexport asserts an inherited job can itself be
// re-exported (the envelope is closed under round trips).
func TestHandoffJobsSurviveReexport(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	body := `{"k":1}`
	sreq := httptest.NewRequest(http.MethodPost, "/v1/placement/search", bytes.NewBufferString(body))
	sw := httptest.NewRecorder()
	s.Handler().ServeHTTP(sw, sreq)
	if sw.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", sw.Code, sw.Body.String())
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	j, _ := s.jobs.get(sub.JobID)
	<-j.done

	envs := exportDone(s.jobs)
	if len(envs) != 1 {
		t.Fatalf("exported %d jobs, want 1", len(envs))
	}
	back, err := jobFromEnvelope(envs[0])
	if err != nil {
		t.Fatal(err)
	}
	again, ok := envelopeOf(back)
	if !ok {
		t.Fatal("re-imported job not exportable")
	}
	aj, _ := json.Marshal(envs[0])
	bj, _ := json.Marshal(again)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("envelope round trip differs:\n got: %s\nwant: %s", bj, aj)
	}
}

// TestCachePutRespectsInflightAndCapacity covers the put path directly:
// an in-flight compile is never overwritten, and capacity still evicts.
func TestCachePutRespectsInflightAndCapacity(t *testing.T) {
	obs.Enable(nil)
	c := newViewCache(2)
	if !c.put("a", &view{}) {
		t.Fatal("put into empty cache failed")
	}
	if c.put("a", &view{}) {
		t.Fatal("put overwrote an existing key")
	}
	c.put("b", &view{})
	c.put("c", &view{})
	if c.len() != 2 {
		t.Fatalf("len = %d, want capacity 2", c.len())
	}
	if _, ok := c.peek("a"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := c.peek(key); !ok {
			t.Fatalf("entry %q missing", key)
		}
	}
}
