package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/racetest"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// errCode decodes the documented error envelope and returns its code.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", body)
	}
	if e["message"] == "" {
		t.Error("error envelope has no message")
	}
	code, _ := e["code"].(string)
	return code
}

func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	tests := []struct {
		name   string
		url    string
		status int
		code   string
	}{
		{"unknown query param", "/v1/sweep?scenrio=both", http.StatusBadRequest, "bad_request"},
		{"unknown scenario", "/v1/sweep?scenario=volcano", http.StatusBadRequest, "bad_request"},
		{"unknown config", "/v1/sweep?config=9", http.StatusBadRequest, "bad_request"},
		{"duplicate config", "/v1/sweep?config=6&config=6", http.StatusBadRequest, "bad_request"},
		{"unknown ensemble", "/v1/sweep?ensemble=nope", http.StatusNotFound, "not_found"},
		{"asset outside ensemble", "/v1/sweep?primary=zzz", http.StatusBadRequest, "bad_request"},
		{"figure below range", "/v1/figure/5", http.StatusNotFound, "not_found"},
		{"figure above range", "/v1/figure/12", http.StatusNotFound, "not_found"},
		{"non-numeric figure", "/v1/figure/six", http.StatusBadRequest, "bad_request"},
		{"figure unknown ensemble", "/v1/figure/6?ensemble=nope", http.StatusNotFound, "not_found"},
		{"figure unknown param", "/v1/figure/6?scenario=both", http.StatusBadRequest, "bad_request"},
		{"placement without primary", "/v1/placement", http.StatusBadRequest, "bad_request"},
		// The parse's 400 comes before the ensemble's 404, as at the router.
		{"placement without primary, unknown ensemble", "/v1/placement?ensemble=nope", http.StatusBadRequest, "bad_request"},
		{"placement unknown primary", "/v1/placement?primary=zzz", http.StatusBadRequest, "bad_request"},
		{"placement unknown objective", "/v1/placement?primary=honolulu-cc&objective=fastest", http.StatusBadRequest, "bad_request"},
		{"placement zero limit", "/v1/placement?primary=honolulu-cc&limit=0", http.StatusBadRequest, "bad_request"},
		{"placement non-numeric limit", "/v1/placement?primary=honolulu-cc&limit=all", http.StatusBadRequest, "bad_request"},
		{"placement unknown data center", "/v1/placement?primary=honolulu-cc&data_center=zzz", http.StatusBadRequest, "bad_request"},
		{"healthz with params", "/v1/healthz?verbose=1", http.StatusBadRequest, "bad_request"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, body := get(t, s.Handler(), tt.url)
			if code != tt.status {
				t.Fatalf("GET %s: status %d, want %d (body %v)", tt.url, code, tt.status, body)
			}
			if got := errCode(t, body); got != tt.code {
				t.Errorf("GET %s: error code %q, want %q", tt.url, got, tt.code)
			}
		})
	}
}

func post(t *testing.T, h http.Handler, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var decoded map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("non-JSON body %q: %v", w.Body.String(), err)
	}
	return w.Code, decoded
}

func TestBadPostBodies(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBodyBytes: 256})
	t.Run("unknown field", func(t *testing.T) {
		code, body := post(t, s.Handler(), `{"scenario": "both", "scenrio": "oops"}`)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (body %v)", code, body)
		}
		if got := errCode(t, body); got != "bad_request" {
			t.Errorf("error code %q, want bad_request", got)
		}
	})
	t.Run("malformed JSON", func(t *testing.T) {
		code, body := post(t, s.Handler(), `{"scenario": `)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (body %v)", code, body)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		big := `{"scenario": "both", "configs": ["` + strings.Repeat("x", 512) + `"]}`
		code, body := post(t, s.Handler(), big)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (body %v)", code, body)
		}
		if got := errCode(t, body); got != "body_too_large" {
			t.Errorf("error code %q, want body_too_large", got)
		}
	})
	t.Run("valid body still works", func(t *testing.T) {
		code, body := post(t, s.Handler(), `{"scenario": "both"}`)
		if code != http.StatusOK {
			t.Fatalf("status %d (body %v)", code, body)
		}
	})
}

// TestErrorsCounted: every error response increments serve.errors.
func TestErrorsCounted(t *testing.T) {
	s, rec := newTestServer(t, Options{})
	get(t, s.Handler(), "/v1/sweep?scenario=volcano")
	get(t, s.Handler(), "/v1/figure/5")
	if v := rec.Counter("serve.errors").Value(); v != 2 {
		t.Errorf("serve.errors = %d, want 2", v)
	}
}

// TestSweepCachedAllocs is the allocation gate of the warm sweep path
// (BenchmarkServeSweepCached without the timing): validation, cache
// hit, five cells and the typed encoder take at most 60 allocations.
// Workers is pinned to 2 so the count includes the evaluation fan-out
// whatever the host's processor count.
func TestSweepCachedAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	e, inv := fixture(t)
	obs.Enable(nil)
	s, err := New(map[string]Ensemble{"oahu": e}, inv, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const url = "/v1/sweep?scenario=both"
	if code, _ := get(t, s.Handler(), url); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("sweep = %d", w.Code)
		}
	})
	if allocs > 60 {
		t.Errorf("cached sweep allocates %v per request, want at most 60", allocs)
	}
}

// TestOutcomeCoversEveryState checks that the typed outcome renders one
// count and one probability for each operational state, under the
// state's own name, so a new state cannot be dropped from answers
// silently.
func TestOutcomeCoversEveryState(t *testing.T) {
	p := stats.NewProfile()
	for i, st := range opstate.States() {
		p.AddN(st, i+1)
	}
	raw, err := json.Marshal(renderOutcome(topology.Config{Name: "6-6"}, threat.Hurricane, p))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counts        map[string]int     `json:"counts"`
		Probabilities map[string]float64 `json:"probabilities"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Counts) != len(opstate.States()) || len(got.Probabilities) != len(opstate.States()) {
		t.Fatalf("rendered %d counts and %d probabilities for %d states: %s", len(got.Counts), len(got.Probabilities), len(opstate.States()), raw)
	}
	for _, st := range opstate.States() {
		if got.Counts[st.String()] != p.Count(st) || got.Probabilities[st.String()] != p.Probability(st) {
			t.Errorf("state %s: rendered %d / %v, profile %d / %v", st, got.Counts[st.String()], got.Probabilities[st.String()], p.Count(st), p.Probability(st))
		}
	}
}
