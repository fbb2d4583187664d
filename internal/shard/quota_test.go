package shard

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/serve"
)

// TestRouterForwardsQuotaIdentity uploads through the router to a
// worker with a one-object quota per client. Each client must be
// charged as itself: by its X-Client-ID, or by its own host when it
// sends none. Were the router's address the principal, the first
// client's upload would exhaust the quota for everyone.
func TestRouterForwardsQuotaIdentity(t *testing.T) {
	enableObs(t)
	ens, inv, err := testEnsemble(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(map[string]serve.Ensemble{"hurricane": ens}, inv, serve.Options{QuotaObjects: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	rt, err := New(Options{Backends: []string{srv.URL}, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	awaitHealthy(t, rt)

	upload := func(name, clientID, remoteAddr string) int {
		t.Helper()
		doc := strings.Replace(uploadTopologyJSON, "shard-island", name, 1)
		req := httptest.NewRequest(http.MethodPost, "/v1/topologies", strings.NewReader(doc))
		req.Header.Set("Content-Type", "application/json")
		if clientID != "" {
			req.Header.Set("X-Client-ID", clientID)
		}
		req.RemoteAddr = remoteAddr
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		return w.Code
	}
	for _, step := range []struct {
		name, client, remote string
		want                 int
	}{
		{"a", "alice", "192.0.2.1:1000", http.StatusCreated},
		{"b", "alice", "192.0.2.1:1001", http.StatusTooManyRequests},
		{"b", "bob", "192.0.2.1:1002", http.StatusCreated},
		// Without the header, the client's host is the principal.
		{"c", "", "192.0.2.2:1000", http.StatusCreated},
		{"d", "", "192.0.2.2:1001", http.StatusTooManyRequests},
		{"d", "", "192.0.2.3:1000", http.StatusCreated},
	} {
		if got := upload(step.name, step.client, step.remote); got != step.want {
			t.Fatalf("upload %q as client %q from %s = %d, want %d", step.name, step.client, step.remote, got, step.want)
		}
	}
}
