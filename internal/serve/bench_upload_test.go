package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compoundthreat/internal/obs"
)

// BenchmarkUploadToSweep measures the write path end to end: submit a
// generation request against an uploaded topology, wait for the job
// and poll its result, and sweep the finished ensemble. The seed varies per
// iteration so every submission is a fresh scenario (no coalescing,
// no view-cache reuse); quotas are lifted out of the way.
func BenchmarkUploadToSweep(b *testing.B) {
	s := benchServer(b, Options{QuotaObjects: 1 << 30, QuotaBytes: 1 << 50})
	obs.Enable(obs.New()) // upload counters need a live recorder
	defer obs.Enable(nil)
	h := s.Handler()
	doc := testTopologyJSON("bench-island")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/topologies", strings.NewReader(doc)))
	if w.Code != http.StatusCreated {
		b.Fatalf("upload = %d: %s", w.Code, w.Body.String())
	}
	var up struct {
		TopologyID string `json:"topology_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &up); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params := testEnsembleJSON(up.TopologyID, 16, int64(1000+i))
		sw := httptest.NewRecorder()
		h.ServeHTTP(sw, httptest.NewRequest(http.MethodPost, "/v1/ensembles", strings.NewReader(params)))
		if sw.Code != http.StatusAccepted {
			b.Fatalf("submit = %d: %s", sw.Code, sw.Body.String())
		}
		var sub struct {
			JobID    string `json:"job_id"`
			Ensemble string `json:"ensemble"`
		}
		if err := json.Unmarshal(sw.Body.Bytes(), &sub); err != nil {
			b.Fatal(err)
		}
		// Wait on the job itself, then poll once: a poll loop's
		// iteration count, and so the benchmark's allocs/op, would
		// depend on how fast the machine generates.
		j, ok := s.genjobs.get(sub.JobID)
		if !ok {
			b.Fatalf("job %s not registered", sub.JobID)
		}
		<-j.done
		pw := httptest.NewRecorder()
		h.ServeHTTP(pw, httptest.NewRequest(http.MethodGet, "/v1/ensembles/jobs/"+sub.JobID, nil))
		var poll struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(pw.Body.Bytes(), &poll); err != nil {
			b.Fatal(err)
		}
		if poll.Status != jobDone {
			b.Fatalf("job %s: %s (%s)", sub.JobID, poll.Status, poll.Error)
		}
		qw := httptest.NewRecorder()
		h.ServeHTTP(qw, httptest.NewRequest(http.MethodGet,
			"/v1/sweep?ensemble="+sub.Ensemble+"&primary=south-cc&second=east-cc&data_center=inland-dc", nil))
		if qw.Code != http.StatusOK {
			b.Fatalf("sweep = %d: %s", qw.Code, qw.Body.String())
		}
	}
}
