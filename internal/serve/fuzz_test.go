package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
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

// The read kinds FuzzReadQuery drives, each through its parse and the
// worker's handler.
const (
	readSweepGet = iota
	readSweepPost
	readFigure
	readPlacement
	readKinds
)

// readReq is one read request as text: a query string, a POST body, or
// for a figure "id" or "id?query".
type readReq struct {
	kind int
	raw  string
}

// figureParts splits a figure's raw text into its id and query.
func (rr readReq) figureParts() (id, rawQuery string) {
	id, rawQuery, _ = strings.Cut(rr.raw, "?")
	return id, rawQuery
}

// parse runs the kind's parse, as the router does, and renders the
// parsed query's identity and response key.
func (rr readReq) parse() (identity, key string, err error) {
	switch rr.kind {
	case readSweepGet:
		q, _ := url.ParseQuery(rr.raw) // as r.URL.Query(): malformed pairs drop
		sq, err := ParseSweepQuery(q)
		return sq.Identity(), sq.Key(http.MethodGet), err
	case readSweepPost:
		sq, err := ParseSweepBody(strings.NewReader(rr.raw))
		return sq.Identity(), sq.Key(http.MethodPost), err
	case readFigure:
		id, rawQuery := rr.figureParts()
		q, _ := url.ParseQuery(rawQuery)
		fq, err := ParseFigure(id, q)
		return fq.Identity(), fq.Key(http.MethodGet), err
	default:
		q, _ := url.ParseQuery(rr.raw)
		pq, err := ParsePlacement(q)
		return pq.Identity(), pq.Key(http.MethodGet), err
	}
}

// request builds the HTTP request the router would forward.
func (rr readReq) request() *http.Request {
	switch rr.kind {
	case readSweepGet:
		req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
		req.URL.RawQuery = rr.raw
		return req
	case readSweepPost:
		return httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(rr.raw))
	case readFigure:
		id, rawQuery := rr.figureParts()
		req := httptest.NewRequest(http.MethodGet, "/v1/figure/"+id, nil)
		req.URL.RawQuery = rawQuery
		return req
	default:
		req := httptest.NewRequest(http.MethodGet, "/v1/placement", nil)
		req.URL.RawQuery = rr.raw
		return req
	}
}

// reordered sorts rr's &-separated query pairs by decoded key,
// descending. The sort is stable, so a repeated key's values keep
// their order, which the answer does depend on. ok is false for a POST
// body, which has no pairs.
func (rr readReq) reordered() (readReq, bool) {
	raw, prefix := rr.raw, ""
	switch rr.kind {
	case readSweepPost:
		return rr, false
	case readFigure:
		id, rawQuery := rr.figureParts()
		raw, prefix = rawQuery, id+"?"
	}
	pairs := strings.Split(raw, "&")
	key := func(pair string) string {
		k, _, _ := strings.Cut(pair, "=")
		if u, err := url.QueryUnescape(k); err == nil {
			return u
		}
		return k
	}
	sort.SliceStable(pairs, func(i, j int) bool { return key(pairs[i]) > key(pairs[j]) })
	return readReq{rr.kind, prefix + strings.Join(pairs, "&")}, true
}

// FuzzReadQuery checks the one read-query parse the router and the
// worker share, for every read kind (sweep GET, sweep POST body,
// figure, placement ranking), over arbitrary request text:
//
//   - no panics;
//   - a request the parse rejects gets, from the worker's handler, the
//     status and error body the router renders for that rejection;
//   - reordering a query's &-separated pairs keeps both the shard
//     identity and the response key;
//   - accepted requests with equal response keys get byte-identical
//     worker answers. The seeds include pairs that differ only in
//     defaulted fields, which must share a key.
func FuzzReadQuery(f *testing.F) {
	for _, rr := range []readReq{
		{readSweepGet, "scenario=both"},
		{readSweepGet, "scenario=both&config=6-6&config=6%2B6%2B6"},
		{readSweepGet, "config=2&primary=a&second=b&data_center=c"},
		{readSweepGet, "ensemble=nope&scenario=nope"},
		{readSweepGet, "config=7&ensemble=oahu"},
		{readSweepGet, "%zz&scenario=;&&config=2"},
		{readSweepGet, "bogus=1"},
		{readSweepGet, "00&92027"}, // two unknown parameters
		// Defaulted fields, omitted and spelled out: one key each pair.
		{readSweepGet, ""},
		{readSweepGet, "scenario="},
		{readSweepGet, "scenario=hurricane"},
		{readSweepGet, "primary=honolulu-cc&second=waiau-plant&data_center=drfortress-dc"},
		{readSweepGet, "config=2&config=2-2&config=6&config=6-6&config=6%2B6%2B6"},
		{readSweepPost, `{"scenario":"both"}`},
		{readSweepPost, `{"scenario":"both","primary":"honolulu-cc","configs":[]}`},
		{readSweepPost, `{"scenario":"both","bogus":1}`},
		{readSweepPost, `{"scenario":`},
		{readFigure, "9"},
		{readFigure, "09?ensemble="},
		{readFigure, "9?bogus=1"},
		{readFigure, "5"},
		{readFigure, "six?ensemble=nope"},
		{readPlacement, "primary=honolulu-cc"},
		{readPlacement, "primary=honolulu-cc&objective=green&scenario="},
		{readPlacement, "ensemble=nope"},
		{readPlacement, "primary=honolulu-cc&limit=0&objective=pink"},
		{readPlacement, "primary=honolulu-cc&data_center=drfortress-dc&limit=2"},
	} {
		f.Add(uint8(rr.kind), rr.raw)
	}
	s, _ := newTestServer(f, Options{})
	h := s.Handler()
	// answers holds the worker's answer per accepted response key, up
	// to a bound, so later inputs with a seen key are compared with it.
	answers := make(map[string]string)
	f.Fuzz(func(t *testing.T, kind uint8, raw string) {
		rr := readReq{int(kind) % readKinds, raw}
		if rr.kind == readFigure {
			// The id is one path segment the mux routes unchanged.
			if id, _ := rr.figureParts(); id == "" || strings.Trim(id, "0123456789abcdefghijklmnopqrstuvwxyz-+") != "" {
				return
			}
		}
		identity, key, err := rr.parse()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, rr.request())
		if err != nil {
			status, code := ErrorStatus(err)
			want := httptest.NewRecorder()
			WriteError(want, status, code, err.Error())
			if w.Code != want.Code || w.Body.String() != want.Body.String() {
				t.Fatalf("%+v: parse rejects with %d %s, worker answers %d %s", rr, want.Code, want.Body, w.Code, w.Body)
			}
			return
		}
		answer := strconv.Itoa(w.Code) + " " + w.Body.String()
		if prev, ok := answers[key]; ok && prev != answer {
			t.Fatalf("%+v: key %q answered %s, an earlier request with that key %s", rr, key, answer, prev)
		} else if !ok && len(answers) < 4096 {
			answers[key] = answer
		}
		rr2, ok := rr.reordered()
		if !ok {
			return
		}
		identity2, key2, err := rr2.parse()
		if err != nil {
			t.Fatalf("parse accepts %+v but rejects its reordering %+v: %v", rr, rr2, err)
		}
		if identity2 != identity || key2 != key {
			t.Fatalf("reordering %+v as %+v changes identity %q → %q or key %q → %q", rr, rr2, identity, identity2, key, key2)
		}
	})
}
