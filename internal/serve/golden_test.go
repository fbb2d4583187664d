package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
