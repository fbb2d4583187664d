package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden response bodies under testdata/")

// goldenQueries are the read answers whose bodies are pinned byte for
// byte: one of each answer shape the read path renders, plus the error
// envelope. The files were recorded from the map-rendered handlers, so
// any encoder change that reorders a key, drops a field or reformats a
// number fails here.
var goldenQueries = []struct {
	name, method, url, body string
	code                    int
}{
	{"sweep_get", http.MethodGet, "/v1/sweep?scenario=both&primary=honolulu-cc&second=kahe-plant&data_center=drfortress-dc", "", http.StatusOK},
	{"sweep_post", http.MethodPost, "/v1/sweep", `{"scenario":"intrusion","configs":["6-6","2"],"primary":"honolulu-cc","second":"waiau-plant","data_center":"drfortress-dc"}`, http.StatusOK},
	{"figure", http.MethodGet, "/v1/figure/9", "", http.StatusOK},
	{"placement", http.MethodGet, "/v1/placement?primary=honolulu-cc&scenario=both", "", http.StatusOK},
	{"error_400", http.MethodGet, "/v1/sweep?scenario=volcano", "", http.StatusBadRequest},
}

// TestGoldenBodies checks every answer above against its recorded body
// in testdata/. Run with -update to re-record after an intended change.
func TestGoldenBodies(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, q := range goldenQueries {
		t.Run(q.name, func(t *testing.T) {
			var req *http.Request
			if q.body != "" {
				req = httptest.NewRequest(q.method, q.url, strings.NewReader(q.body))
				req.Header.Set("Content-Type", "application/json")
			} else {
				req = httptest.NewRequest(q.method, q.url, nil)
			}
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != q.code {
				t.Fatalf("status %d, want %d: %s", w.Code, q.code, w.Body.String())
			}
			path := filepath.Join("testdata", q.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("body differs from %s:\n got: %s\nwant: %s", path, w.Body.Bytes(), want)
			}
		})
	}
}

// ageSeconds matches the one field of a job poll body that depends on
// wall time.
var ageSeconds = regexp.MustCompile(`"age_seconds":[0-9.e+-]+`)

// checkGolden compares body against testdata/<name>.json, with
// age_seconds normalized, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	body = ageSeconds.ReplaceAll(body, []byte(`"age_seconds":0`))
	path := filepath.Join("testdata", name+".json")
	if *updateGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("body differs from %s:\n got: %s\nwant: %s", path, body, want)
	}
}

// TestGoldenJobBodies pins the write-side answers byte for byte: the
// placement-search submit and its done poll, the generation submit, its
// done poll and the 200 resubmit of a generated ensemble, and the
// topology upload, created and existing. Job ids derive from content
// keys that embed ensemble fingerprints, so these bodies also pin the
// hashes behind them. Every inflight slot is held across each submit,
// so the 202 answers always report a running job.
func TestGoldenJobBodies(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxInflight: 1})
	h := s.Handler()
	do := func(method, url, body string, code int) []byte {
		t.Helper()
		req := httptest.NewRequest(method, url, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != code {
			t.Fatalf("%s %s: status %d, want %d: %s", method, url, w.Code, code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	submitHeld := func(url, body string) []byte {
		t.Helper()
		release, err := s.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return do(http.MethodPost, url, body, http.StatusAccepted)
	}
	jobID := func(body []byte) string {
		t.Helper()
		var v struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.JobID == "" {
			t.Fatalf("no job_id in %s (%v)", body, err)
		}
		return v.JobID
	}

	sub := submitHeld("/v1/placement/search", `{"k":2,"exact":true}`)
	checkGolden(t, "job_submit", sub)
	id := jobID(sub)
	if done := pollJob(t, h, id); done["status"] != jobDone {
		t.Fatalf("placement job finished %v", done["status"])
	}
	checkGolden(t, "job_poll_done", do(http.MethodGet, "/v1/placement/jobs/"+id, "", http.StatusOK))

	doc := testTopologyJSON("golden-island")
	created := do(http.MethodPost, "/v1/topologies", doc, http.StatusCreated)
	checkGolden(t, "topology_created", created)
	checkGolden(t, "topology_existing", do(http.MethodPost, "/v1/topologies", doc, http.StatusOK))
	var topo struct {
		ID string `json:"topology_id"`
	}
	if err := json.Unmarshal(created, &topo); err != nil {
		t.Fatal(err)
	}

	params := testEnsembleJSON(topo.ID, 8, 5)
	gsub := submitHeld("/v1/ensembles", params)
	checkGolden(t, "genjob_submit", gsub)
	gid := jobID(gsub)
	if done := awaitGenJob(t, h, gid); done["status"] != jobDone {
		t.Fatalf("generation job finished %v", done["status"])
	}
	checkGolden(t, "genjob_poll_done", do(http.MethodGet, "/v1/ensembles/jobs/"+gid, "", http.StatusOK))
	checkGolden(t, "genjob_resubmit", do(http.MethodPost, "/v1/ensembles", params, http.StatusOK))
}
