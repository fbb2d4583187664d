package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
)

// FuzzTopologyUpload checks the topology decode/validate path against
// arbitrary bodies: no panics, and every accepted document has a
// stable content id — re-decoding its canonical form yields the same
// id, so idempotent re-uploads can never split.
func FuzzTopologyUpload(f *testing.F) {
	f.Add(testTopologyJSON("seed"))
	f.Add(`{"name": "x"}`)
	f.Add(`{not json`)
	f.Add(``)
	f.Add(strings.Replace(testTopologyJSON("mut"), `"control-center"`, `"x"`, 1))
	f.Add(testTopologyJSON("trail") + `{"more": 1}`)
	opt := Options{}.defaults()
	f.Fuzz(func(t *testing.T, input string) {
		doc, canonical, id, err := decodeTopologyDoc([]byte(input), opt)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(id) != 16 {
			t.Fatalf("accepted document with id %q, want 16 hex digits", id)
		}
		if doc.Name == "" || len(doc.Assets) == 0 || len(doc.Terrain.Coastline) < 3 {
			t.Fatalf("accepted document violates its own limits: %+v", doc)
		}
		_, canonical2, id2, err := decodeTopologyDoc(canonical, opt)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if id2 != id {
			t.Fatalf("canonical re-decode changed id: %s != %s", id2, id)
		}
		if string(canonical2) != string(canonical) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canonical2, canonical)
		}
	})
}

// FuzzEnsembleParams checks the generation-parameter decode path:
// no panics, accepted parameters always validate as an
// EnsembleConfig, and the scenario id is deterministic.
func FuzzEnsembleParams(f *testing.F) {
	f.Add(testEnsembleJSON(strings.Repeat("a", 16), 8, 7))
	f.Add(`{"topology": ""}`)
	f.Add(`{"topology": "x", "realizations": -1}`)
	f.Add(`{not json`)
	f.Add(``)
	opt := Options{}.defaults()
	f.Fuzz(func(t *testing.T, input string) {
		p, err := decodeEnsembleParams([]byte(input), opt)
		if err != nil {
			return
		}
		if p.topologyID == "" {
			t.Fatal("accepted parameters without a topology id")
		}
		if err := p.cfg.Validate(); err != nil {
			t.Fatalf("accepted parameters fail config validation: %v", err)
		}
		p2, err := decodeEnsembleParams(p.canonical, opt)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if p2.scenarioID != p.scenarioID {
			t.Fatalf("canonical re-decode changed scenario id: %s != %s", p2.scenarioID, p.scenarioID)
		}
	})
}

// FuzzSweepQuery checks the router's sweep validation (SweepShape)
// against the worker's GET /v1/sweep handler over arbitrary raw query
// strings: no panics; every query SweepShape rejects, it rejects with
// a 400 the worker also answers, so the router never refuses what a
// worker would serve; and reordering the query's &-separated pairs
// changes neither the shard identity nor the response key.
func FuzzSweepQuery(f *testing.F) {
	f.Add("scenario=both")
	f.Add("scenario=both&config=6-6&config=6%2B6%2B6")
	f.Add("config=2&primary=a&second=b&data_center=c")
	f.Add("ensemble=nope&scenario=nope")
	f.Add("config=7&ensemble=oahu")
	f.Add("%zz&scenario=;&&config=2")
	s, _ := newTestServer(f, Options{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): malformed pairs drop
		shape, err := SweepShape(q, nil)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
				t.Fatalf("SweepShape(%q) rejects with %v, want a 400", raw, err)
			}
			req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
			req.URL.RawQuery = raw
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("SweepShape(%q) = 400 (%v), worker = %d: %s", raw, err, w.Code, w.Body.String())
			}
			return
		}

		// Reorder the pairs by decoded key, descending. The sort is
		// stable, so a repeated key's values keep their order, which
		// the answer does depend on.
		pairs := strings.Split(raw, "&")
		key := func(pair string) string {
			k, _, _ := strings.Cut(pair, "=")
			if u, err := url.QueryUnescape(k); err == nil {
				return u
			}
			return k
		}
		sort.SliceStable(pairs, func(i, j int) bool { return key(pairs[i]) > key(pairs[j]) })
		reordered := strings.Join(pairs, "&")
		q2, _ := url.ParseQuery(reordered)
		shape2, err := SweepShape(q2, nil)
		if err != nil {
			t.Fatalf("SweepShape accepts %q but rejects its reordering %q: %v", raw, reordered, err)
		}
		if shape2 != shape {
			t.Fatalf("reordering %q as %q changes the shape: %+v != %+v", raw, reordered, shape2, shape)
		}
		if k1, k2 := ResponseKey(http.MethodGet, "/v1/sweep", q, nil), ResponseKey(http.MethodGet, "/v1/sweep", q2, nil); k1 != k2 {
			t.Fatalf("reordering %q as %q changes the response key: %q != %q", raw, reordered, k2, k1)
		}
	})
}
