package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postJob submits one placement-search body and decodes the response.
func postJob(t testing.TB, h http.Handler, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/placement/search", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return decodeBody(t, w, "POST /v1/placement/search")
}

func decodeBody(t testing.TB, w *httptest.ResponseRecorder, what string) (int, map[string]any) {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: non-JSON body %q: %v", what, w.Body.String(), err)
	}
	return w.Code, body
}

// pollJob polls the job until it leaves the running state.
func pollJob(t testing.TB, h http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, h, "/v1/placement/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %v", id, code, body)
		}
		if body["status"] != jobRunning {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %v", id, body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobSubmitAndPoll: a submitted exact search runs to completion
// and the poll endpoint reports the optimum with its full outcome.
// Over the stub ensemble ({a,b} flood together, a alone once, c
// never), the best 2-of-3 placement is {b, c}: one flooded site in one
// of four realizations.
func TestJobSubmitAndPoll(t *testing.T) {
	s, _, rec := newStubServer(t, Options{})
	code, body := postJob(t, s.Handler(), `{"k":2,"exact":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, body)
	}
	id, _ := body["job_id"].(string)
	if id == "" {
		t.Fatalf("no job_id in %v", body)
	}
	if body["coalesced"] != false || body["k"] != float64(2) || body["exact"] != true {
		t.Errorf("submit body = %v", body)
	}

	done := pollJob(t, s.Handler(), id)
	if done["status"] != jobDone {
		t.Fatalf("terminal state = %v (%v)", done["status"], done["error"])
	}
	res, _ := done["result"].(map[string]any)
	if res == nil {
		t.Fatalf("done job has no result: %v", done)
	}
	sites, _ := res["sites"].([]any)
	if len(sites) != 2 || sites[0] != "b" || sites[1] != "c" {
		t.Errorf("sites = %v, want [b c]", sites)
	}
	if res["score"] != 0.75 {
		t.Errorf("score = %v, want 0.75", res["score"])
	}
	if res["exact"] != true || res["candidates"] != float64(3) {
		t.Errorf("result = %v", res)
	}
	outcome, _ := res["outcome"].(map[string]any)
	if outcome == nil || outcome["realizations"] != float64(4) {
		t.Errorf("outcome = %v", outcome)
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 1 {
		t.Errorf("jobs_submitted = %d, want 1", v)
	}
	if v := rec.Counter("serve.jobs_done").Value(); v != 1 {
		t.Errorf("jobs_done = %d, want 1", v)
	}
	if v := rec.Gauge("serve.jobs_running").Value(); v != 0 {
		t.Errorf("jobs_running = %d, want 0", v)
	}

	// The job counters surface through the Prometheus endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "serve_jobs_done_total 1") {
		t.Error("metrics exposition missing serve_jobs_done_total")
	}
}

// TestJobCoalescing: identical submissions share one job (including
// after it finishes — the job doubles as a result cache); different
// search shapes get different jobs.
func TestJobCoalescing(t *testing.T) {
	s, stub, rec := newStubServer(t, Options{Timeout: time.Minute})
	stub.close()
	t.Cleanup(stub.open)

	body := `{"k":2}`
	code, first := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, first)
	}
	code, second := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if first["job_id"] != second["job_id"] {
		t.Errorf("identical submissions got jobs %v and %v", first["job_id"], second["job_id"])
	}
	if second["coalesced"] != true {
		t.Error("resubmission not marked coalesced")
	}
	code, other := postJob(t, s.Handler(), `{"k":2,"objective":"weighted"}`)
	if code != http.StatusAccepted {
		t.Fatalf("distinct submit: status %d", code)
	}
	if other["job_id"] == first["job_id"] {
		t.Error("distinct search shape coalesced onto the same job")
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 2 {
		t.Errorf("jobs_submitted = %d, want 2", v)
	}
	if v := rec.Counter("serve.jobs_coalesced").Value(); v != 1 {
		t.Errorf("jobs_coalesced = %d, want 1", v)
	}

	stub.open()
	done := pollJob(t, s.Handler(), first["job_id"].(string))
	if done["status"] != jobDone {
		t.Fatalf("terminal state = %v (%v)", done["status"], done["error"])
	}
	// Resubmitting a finished search coalesces onto the retained job.
	code, again := postJob(t, s.Handler(), body)
	if code != http.StatusAccepted || again["job_id"] != first["job_id"] || again["coalesced"] != true {
		t.Errorf("post-completion resubmit = %d %v", code, again)
	}
	if again["status"] != jobDone {
		t.Errorf("post-completion resubmit status = %v, want done", again["status"])
	}
}

// TestJobCanceledOnClose: Close cancels running jobs (pollable as
// canceled) and rejects new submissions with 503.
func TestJobCanceledOnClose(t *testing.T) {
	s, stub, rec := newStubServer(t, Options{Timeout: time.Minute})
	stub.close()
	t.Cleanup(stub.open)

	code, body := postJob(t, s.Handler(), `{"k":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, body)
	}
	s.Close()
	done := pollJob(t, s.Handler(), body["job_id"].(string))
	if done["status"] != jobCanceled {
		t.Fatalf("terminal state = %v, want canceled", done["status"])
	}
	if v := rec.Counter("serve.jobs_canceled").Value(); v != 1 {
		t.Errorf("jobs_canceled = %d, want 1", v)
	}
	code, rejected := postJob(t, s.Handler(), `{"k":3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close submit: status %d, body %v", code, rejected)
	}
	if e, _ := rejected["error"].(map[string]any); e == nil || e["code"] != "shutting_down" {
		t.Errorf("post-Close error = %v, want shutting_down", rejected)
	}
}

// jobKind drives one async job kind through its HTTP surface, so the
// lifecycle tests below run over both kinds.
type jobKind struct {
	name   string
	metric string // instrument name prefix, e.g. "serve.jobs_"
	url    string // submit endpoint
	jobs   string // poll endpoint prefix
	// setup prepares the server for the kind and returns the submit
	// body of variant i (0 or 1); distinct variants are distinct jobs.
	setup func(t *testing.T, s *Server) func(i int) string
	poll  func(t testing.TB, h http.Handler, id string) map[string]any
	// block stalls the kind's work until unblock runs.
	block func(t *testing.T, s *Server, stub *stubFixture) (unblock func())
}

var jobKinds = []jobKind{
	{
		name:   "placement",
		metric: "serve.jobs_",
		url:    "/v1/placement/search",
		jobs:   "/v1/placement/jobs/",
		setup: func(*testing.T, *Server) func(int) string {
			// The ensemble is named: once a generation job registers
			// its ensemble, an unnamed search is ambiguous.
			return func(i int) string { return fmt.Sprintf(`{"ensemble":"stub","k":%d}`, 2+i) }
		},
		poll: pollJob,
		// A closed stub blocks the search inside compile, where it
		// cannot observe its context.
		block: func(_ *testing.T, _ *Server, stub *stubFixture) func() {
			stub.close()
			return stub.open
		},
	},
	{
		name:   "generation",
		metric: "serve.genjobs_",
		url:    "/v1/ensembles",
		jobs:   "/v1/ensembles/jobs/",
		setup: func(t *testing.T, s *Server) func(int) string {
			code, body := uploadPost(t, s.Handler(), "/v1/topologies", testTopologyJSON("jobs-island"), nil)
			if code != http.StatusCreated {
				t.Fatalf("upload = %d, body %v", code, body)
			}
			id := body["topology_id"].(string)
			return func(i int) string { return testEnsembleJSON(id, 8, int64(1+i)) }
		},
		poll: awaitGenJob,
		// Holding the only inflight slot keeps the runner from starting.
		block: func(t *testing.T, s *Server, _ *stubFixture) func() {
			release, err := s.acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return release
		},
	},
}

// submitKind posts variant i of the kind and returns the 202 body.
func submitKind(t *testing.T, s *Server, k jobKind, body string) map[string]any {
	t.Helper()
	code, out := uploadPost(t, s.Handler(), k.url, body, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %v", code, out)
	}
	return out
}

// TestJobTimeout: a job stuck past Options.JobTimeout is marked failed
// with a deadline error — the watcher fires even though the work
// cannot observe the context (a blocking source, or a runner still
// waiting for its slot). The watcher finishes first; the runner's
// later return changes nothing. A failed job leaves the coalescing
// index, so the same body submits a fresh job that runs to done.
func TestJobTimeout(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			s, stub, rec := newStubServer(t, Options{JobTimeout: 50 * time.Millisecond, MaxInflight: 1})
			body := k.setup(t, s)(0)
			unblock := sync.OnceFunc(k.block(t, s, stub))
			t.Cleanup(unblock)

			sub := submitKind(t, s, k, body)
			done := k.poll(t, s.Handler(), sub["job_id"].(string))
			if done["status"] != jobFailed {
				t.Fatalf("terminal state = %v, want failed", done["status"])
			}
			if msg, _ := done["error"].(string); !strings.Contains(msg, "deadline") {
				t.Errorf("error = %q, want a deadline message", msg)
			}
			if v := rec.Counter(k.metric + "failed").Value(); v != 1 {
				t.Errorf("%sfailed = %d, want 1", k.metric, v)
			}
			if v := rec.Counter("serve.timeouts").Value(); v != 1 {
				t.Errorf("timeouts = %d, want 1", v)
			}

			unblock()
			s.opt.JobTimeout = time.Minute
			retry := submitKind(t, s, k, body)
			if retry["coalesced"] != false {
				t.Error("retry coalesced onto the failed job")
			}
			if done := k.poll(t, s.Handler(), retry["job_id"].(string)); done["status"] != jobDone {
				t.Fatalf("retry finished %v (%v), want done", done["status"], done["error"])
			}
			for name, want := range map[string]int64{"submitted": 2, "done": 1, "failed": 1, "canceled": 0} {
				if v := rec.Counter(k.metric + name).Value(); v != want {
					t.Errorf("%s%s = %d, want %d", k.metric, name, v, want)
				}
			}
			if v := rec.Gauge(k.metric + "running").Value(); v != 0 {
				t.Errorf("%srunning = %d, want 0", k.metric, v)
			}
		})
	}
}

// TestJobFirstFinisherWins: when the runner finishes first, the
// watcher that wakes on the runner's own cancel changes nothing: the
// job stays done and is counted once.
func TestJobFirstFinisherWins(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			s, _, rec := newStubServer(t, Options{})
			sub := submitKind(t, s, k, k.setup(t, s)(0))
			id := sub["job_id"].(string)
			if done := k.poll(t, s.Handler(), id); done["status"] != jobDone {
				t.Fatalf("terminal state = %v (%v), want done", done["status"], done["error"])
			}
			time.Sleep(20 * time.Millisecond) // let the watcher observe the cancel
			if done := k.poll(t, s.Handler(), id); done["status"] != jobDone {
				t.Errorf("state after the watcher woke = %v, want done", done["status"])
			}
			for name, want := range map[string]int64{"submitted": 1, "done": 1, "failed": 0, "canceled": 0} {
				if v := rec.Counter(k.metric + name).Value(); v != want {
					t.Errorf("%s%s = %d, want %d", k.metric, name, v, want)
				}
			}
			if v := rec.Gauge(k.metric + "running").Value(); v != 0 {
				t.Errorf("%srunning = %d, want 0", k.metric, v)
			}
		})
	}
}

// TestJobRetention: finished jobs beyond JobRetention are evicted
// oldest-first and their ids stop resolving.
func TestJobRetention(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			s, _, _ := newStubServer(t, Options{JobRetention: 1})
			body := k.setup(t, s)
			first := submitKind(t, s, k, body(0))
			k.poll(t, s.Handler(), first["job_id"].(string))
			second := submitKind(t, s, k, body(1))
			k.poll(t, s.Handler(), second["job_id"].(string))

			if code, _ := get(t, s.Handler(), k.jobs+first["job_id"].(string)); code != http.StatusNotFound {
				t.Errorf("evicted job poll: status %d, want 404", code)
			}
			if code, _ := get(t, s.Handler(), k.jobs+second["job_id"].(string)); code != http.StatusOK {
				t.Errorf("retained job poll: status %d, want 200", code)
			}
		})
	}
}

// TestJobSubmitPollCloseConcurrent races submissions and polls of both
// kinds against Close: every accepted job reaches a terminal state,
// no running gauge is left raised, and submissions after Close are
// refused.
func TestJobSubmitPollCloseConcurrent(t *testing.T) {
	s, _, rec := newStubServer(t, Options{})
	bodies := make([]func(int) string, len(jobKinds))
	for i, k := range jobKinds {
		bodies[i] = k.setup(t, s)
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = make(map[string]int) // job id → kind index
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				ki := (w + i) % len(jobKinds)
				k := jobKinds[ki]
				code, out := uploadPost(t, s.Handler(), k.url, bodies[ki](i%2), nil)
				switch code {
				case http.StatusAccepted, http.StatusOK:
					id := out["job_id"].(string)
					mu.Lock()
					ids[id] = ki
					mu.Unlock()
					if code, body := get(t, s.Handler(), k.jobs+id); code != http.StatusOK {
						t.Errorf("poll %s: status %d, body %v", id, code, body)
					}
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("submit: status %d, body %v", code, out)
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()

	for id, ki := range ids {
		if final := jobKinds[ki].poll(t, s.Handler(), id); final["status"] == jobRunning {
			t.Errorf("job %s still running after Close", id)
		}
	}
	for i, k := range jobKinds {
		if v := rec.Gauge(k.metric + "running").Value(); v != 0 {
			t.Errorf("%srunning = %d after every job finished, want 0", k.metric, v)
		}
		code, out := uploadPost(t, s.Handler(), k.url, bodies[i](1), nil)
		wantAPIError(t, code, out, http.StatusServiceUnavailable, "shutting_down")
	}
}

// TestJobValidation: malformed submissions fail synchronously with the
// typed error envelope — nothing to poll.
func TestJobValidation(t *testing.T) {
	s, _, rec := newStubServer(t, Options{})
	tests := []struct {
		name   string
		body   string
		status int
	}{
		{"invalid json", `{`, http.StatusBadRequest},
		{"unknown field", `{"k":2,"nope":1}`, http.StatusBadRequest},
		{"zero k", `{"k":0}`, http.StatusBadRequest},
		{"k over candidates", `{"k":5}`, http.StatusBadRequest},
		{"bad objective", `{"k":2,"objective":"pink"}`, http.StatusBadRequest},
		{"bad scenario", `{"k":2,"scenario":"meteor"}`, http.StatusBadRequest},
		{"unknown ensemble", `{"k":2,"ensemble":"nope"}`, http.StatusNotFound},
		{"bad scenario, unknown ensemble", `{"ensemble":"nope","scenario":"bad"}`, http.StatusBadRequest},
		{"unknown candidate", `{"k":2,"candidates":["a","zzz"]}`, http.StatusBadRequest},
		{"duplicate candidate", `{"k":2,"candidates":["a","a"]}`, http.StatusBadRequest},
		{"over max candidates", `{"k":2,"max_candidates":2}`, http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, body := postJob(t, s.Handler(), tt.body)
			if code != tt.status {
				t.Fatalf("status = %d, want %d (body %v)", code, tt.status, body)
			}
			if e, _ := body["error"].(map[string]any); e == nil || e["code"] == "" {
				t.Errorf("missing error envelope: %v", body)
			}
		})
	}
	if v := rec.Counter("serve.jobs_submitted").Value(); v != 0 {
		t.Errorf("jobs_submitted = %d, want 0 (no valid submissions)", v)
	}
	if code, _ := get(t, s.Handler(), "/v1/placement/jobs/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown job poll: status %d, want 404", code)
	}
}
