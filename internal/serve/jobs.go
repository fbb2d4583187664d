package serve

// Async k-site placement search jobs. A pair sweep answers within a
// request deadline; a k-site search over thousands of candidates does
// not, so POST /v1/placement/search submits a job and returns 202
// with an id, and GET /v1/placement/jobs/{id} polls status, live
// progress (evaluated, pruned, current best), and the final result.
//
// Jobs reuse the serving substrate: validation is synchronous (bad
// requests fail at submit, not asynchronously), identical submissions
// coalesce onto one running job by content key (ensemble fingerprint
// plus the full search shape), the evaluation holds one inflight slot
// so jobs and interactive queries share the same work bound, and each
// job runs under its own trace ("placement.job"). Failed and canceled
// jobs leave the coalescing index so a resubmission retries; finished
// jobs are retained (bounded by Options.JobRetention) for polling.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/threat"
)

// Job states as reported by the poll endpoint.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// JobTraceHeader carries a job's execution trace ID on submit and poll
// responses, so submit → run → poll is one navigable story: the client
// reads the header and fetches GET /v1/traces/{id} for the job run.
// The router forwards it verbatim.
const JobTraceHeader = "X-Job-Trace-Id"

// job is one submitted k-site search.
type job struct {
	id       string
	key      string
	ensName  string
	scenario threat.Scenario
	objName  string
	k        int
	exact    bool
	created  time.Time
	// traceID is the job execution's own trace ID ("" with tracing
	// off); submitTrace links back to the request that submitted the
	// job. Both are written once before the job is published.
	traceID     string
	submitTrace string

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    string
	progress placement.KProgress
	result   *placement.KResult
	err      error
}

// snapshotLocked must be called with j.mu held.
func (j *job) snapshot() (state string, progress placement.KProgress, result *placement.KResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress, j.result, j.err
}

// jobRegistry indexes jobs by id (polling) and by content key
// (coalescing), retains finished jobs up to a bound, and owns the
// shutdown handshake.
type jobRegistry struct {
	retention int

	mu       sync.Mutex
	byID     map[string]*job
	byKey    map[string]*job
	finished []*job // eviction order, oldest first
	closed   bool

	submitted *obs.Counter
	coalesced *obs.Counter
	jdone     *obs.Counter
	jfailed   *obs.Counter
	jcanceled *obs.Counter
	running   *obs.Gauge
}

func newJobRegistry(retention int) *jobRegistry {
	rec := obs.Default()
	return &jobRegistry{
		retention: retention,
		byID:      make(map[string]*job),
		byKey:     make(map[string]*job),
		submitted: rec.Counter("serve.jobs_submitted"),
		coalesced: rec.Counter("serve.jobs_coalesced"),
		jdone:     rec.Counter("serve.jobs_done"),
		jfailed:   rec.Counter("serve.jobs_failed"),
		jcanceled: rec.Counter("serve.jobs_canceled"),
		running:   rec.Gauge("serve.jobs_running"),
	}
}

// errShuttingDown rejects submissions after Close.
func errShuttingDown() error {
	return &apiError{status: http.StatusServiceUnavailable, code: "shutting_down", message: "server is shutting down"}
}

// submit returns the job for key, creating it with create on first
// sight. The bool reports whether the submission coalesced onto an
// existing job.
func (g *jobRegistry) submit(key string, create func(id string) *job) (*job, bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false, errShuttingDown()
	}
	if j, ok := g.byKey[key]; ok {
		g.coalesced.Inc()
		return j, true, nil
	}
	id := jobID(key)
	for {
		prev, taken := g.byID[id]
		if !taken || prev.key == key {
			break
		}
		// A different key landed on this id (astronomically unlikely):
		// re-hash until free.
		id = jobID(id)
	}
	j := create(id)
	g.byID[id] = j
	g.byKey[key] = j
	g.submitted.Inc()
	g.running.Inc()
	return j, false, nil
}

// jobID derives a stable id from the content key (FNV-1a, rendered as
// 16 hex digits), so resubmitting the same search names the same job.
func jobID(key string) string {
	h := uint64(fnv64Offset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnv64Prime
	}
	return fmt.Sprintf("%016x", h)
}

// get returns the job by id.
func (g *jobRegistry) get(id string) (*job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.byID[id]
	return j, ok
}

// finish records a job's terminal state. Idempotent: the first caller
// (the runner or the timeout watcher) wins. Failed and canceled jobs
// leave the coalescing index so identical resubmissions retry; done
// jobs stay coalescable as a result cache until retention evicts them.
func (g *jobRegistry) finish(j *job, res *placement.KResult, err error) {
	j.mu.Lock()
	if j.state != jobRunning {
		j.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		j.state, j.result = jobDone, res
	case errors.Is(err, context.Canceled):
		j.state, j.err = jobCanceled, err
	default:
		j.state, j.err = jobFailed, err
	}
	state := j.state
	j.mu.Unlock()
	close(j.done)

	g.running.Dec()
	switch state {
	case jobDone:
		g.jdone.Inc()
	case jobCanceled:
		g.jcanceled.Inc()
	default:
		g.jfailed.Inc()
	}
	g.mu.Lock()
	if state != jobDone && g.byKey[j.key] == j {
		delete(g.byKey, j.key)
	}
	g.finished = append(g.finished, j)
	for len(g.finished) > g.retention {
		old := g.finished[0]
		g.finished = g.finished[1:]
		delete(g.byID, old.id)
		if g.byKey[old.key] == old {
			delete(g.byKey, old.key)
		}
	}
	g.mu.Unlock()
}

// exportDone renders every finished (done) job as a wire envelope,
// oldest first — the handoff order, so retention eviction on the
// receiving side keeps the newest results.
func (g *jobRegistry) exportDone() []jobEnvelope {
	g.mu.Lock()
	finished := append([]*job(nil), g.finished...)
	g.mu.Unlock()
	out := make([]jobEnvelope, 0, len(finished))
	for _, j := range finished {
		if env, ok := envelopeOf(j); ok {
			out = append(out, env)
		}
	}
	return out
}

// importDone registers an inherited finished job for polling and — by
// content key — as a coalescing result-cache hit, exactly like a
// locally finished job. Existing ids and keys win over imports; the
// registry's retention bound applies as usual.
func (g *jobRegistry) importDone(j *job) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	if _, taken := g.byID[j.id]; taken {
		return false
	}
	if _, taken := g.byKey[j.key]; taken {
		return false
	}
	g.byID[j.id] = j
	g.byKey[j.key] = j
	g.finished = append(g.finished, j)
	for len(g.finished) > g.retention {
		old := g.finished[0]
		g.finished = g.finished[1:]
		delete(g.byID, old.id)
		if g.byKey[old.key] == old {
			delete(g.byKey, old.key)
		}
	}
	return true
}

// close stops accepting submissions and cancels every running job.
func (g *jobRegistry) close() {
	g.mu.Lock()
	g.closed = true
	var cancels []context.CancelFunc
	for _, j := range g.byID {
		j.mu.Lock()
		if j.state == jobRunning {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	g.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Close cancels all running placement and generation jobs and rejects
// new submissions and uploads; poll endpoints keep answering (canceled
// jobs report their state) and /v1/readyz starts failing. Call after
// Run returns, before process exit, so job goroutines stop
// deterministically.
func (s *Server) Close() {
	s.closed.Store(true)
	s.jobs.close()
	s.genjobs.close()
}

// ---- POST /v1/placement/search ----

// placementSearchRequest is the submit body.
type placementSearchRequest struct {
	Ensemble string `json:"ensemble"`
	Scenario string `json:"scenario"`
	K        int    `json:"k"`
	Exact    bool   `json:"exact"`
	// Objective is "green" (default) or "weighted".
	Objective string `json:"objective"`
	// Candidates overrides the candidate universe; empty = every
	// control-site candidate in the server's inventory.
	Candidates []string `json:"candidates"`
	// MaxCandidates rejects larger universes at submit when > 0.
	MaxCandidates int `json:"max_candidates"`
}

func (s *Server) handlePlacementSearch(w http.ResponseWriter, r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req placementSearchRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	ens, err := s.ensemble(req.Ensemble)
	if err != nil {
		return err
	}
	scenario, err := parseScenario(req.Scenario)
	if err != nil {
		return err
	}
	objName, weights := "green", placement.GreenWeights
	switch req.Objective {
	case "", "green":
	case "weighted":
		objName, weights = "weighted", placement.AvailabilityWeights
	default:
		return badRequestf("unknown objective %q (want green or weighted)", req.Objective)
	}
	kreq := placement.KRequest{
		Ensemble:      ens.e,
		Inventory:     s.inv,
		Candidates:    req.Candidates,
		K:             req.K,
		Scenario:      scenario,
		Weights:       weights,
		Workers:       s.opt.Workers,
		Exact:         req.Exact,
		MaxCandidates: req.MaxCandidates,
	}
	// Validate synchronously: a malformed search fails this request,
	// never a job the client has to poll to see die.
	cands, err := kreq.Validate()
	if err != nil {
		return badRequestf("%v", err)
	}
	if err := ens.checkAssets(cands); err != nil {
		return err
	}
	kreq.Candidates = cands

	key := fmt.Sprintf("%016x|%s|%s|%d|%t|%d|%s",
		ens.hash, scenario, objName, req.K, req.Exact, req.MaxCandidates,
		strings.Join(cands, "\x1f"))
	j, coalesced, err := s.jobs.submit(key, func(id string) *job {
		nj := &job{
			id:          id,
			key:         key,
			ensName:     ens.name,
			scenario:    scenario,
			objName:     objName,
			k:           req.K,
			exact:       req.Exact,
			created:     time.Now(),
			done:        make(chan struct{}),
			state:       jobRunning,
			submitTrace: obs.TraceFromContext(r.Context()).ID(),
		}
		s.startJob(nj, kreq)
		return nj
	})
	if err != nil {
		return err
	}
	// Cross-link the submitting trace and the job trace in both
	// directions, so an operator can walk submit → run → poll.
	obs.SpanFromContext(r.Context()).Annotate("job_id", j.id)
	if j.traceID != "" {
		w.Header().Set(JobTraceHeader, j.traceID)
	}
	state, _, _, _ := j.snapshot()
	w.Header().Set("Location", "/v1/placement/jobs/"+j.id)
	return writeJSONStatus(w, http.StatusAccepted, map[string]any{
		"job_id":    j.id,
		"status":    state,
		"coalesced": coalesced,
		"ensemble":  j.ensName,
		"scenario":  j.scenario.String(),
		"objective": j.objName,
		"k":         j.k,
		"exact":     j.exact,
	})
}

// startJob launches the runner and the timeout watcher. The runner
// holds one inflight evaluation slot for the search itself; the
// watcher makes the deadline observable even while the search is stuck
// inside a phase that cannot be interrupted (an ensemble source that
// blocks during matrix compile).
func (s *Server) startJob(j *job, kreq placement.KRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.JobTimeout)
	j.cancel = cancel
	// The job runs under its own trace, linked to the submitting
	// request's trace by annotation (the submit request finishes long
	// before the job does, so sharing one trace would tie the job's
	// spans to an already-published tree).
	tr := s.tracer.Start("placement.job")
	if tr != nil {
		ctx = obs.ContextWithSpan(obs.ContextWithTrace(ctx, tr), tr.Root())
		j.traceID = tr.ID()
		tr.Root().Annotate("job_id", j.id)
		if j.submitTrace != "" {
			tr.Root().Annotate("submit_trace_id", j.submitTrace)
		}
	}
	kreq.Progress = func(p placement.KProgress) {
		j.mu.Lock()
		j.progress = p
		j.mu.Unlock()
	}
	go func() {
		select {
		case <-ctx.Done():
			// Timeout or Close: surface the terminal state immediately;
			// the runner's eventual return is a no-op on a finished job.
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Inc()
				err = fmt.Errorf("job exceeded its %v deadline: %w", s.opt.JobTimeout, err)
			}
			s.jobs.finish(j, nil, err)
		case <-j.done:
		}
	}()
	go func() {
		defer cancel()
		release, err := s.acquire(ctx)
		if err == nil {
			var res *placement.KResult
			res, err = placement.SearchKCtx(ctx, kreq)
			release()
			s.jobs.finish(j, res, err)
		} else {
			s.jobs.finish(j, nil, err)
		}
		tr.Finish()
	}()
}

// ---- GET /v1/placement/jobs/{id} ----

func (s *Server) handlePlacementJob(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r.URL.Query()); err != nil {
		return err
	}
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		return notFoundf("unknown job %q", id)
	}
	if j.traceID != "" {
		w.Header().Set(JobTraceHeader, j.traceID)
	}
	state, progress, result, jerr := j.snapshot()
	out := map[string]any{
		"job_id":      j.id,
		"status":      state,
		"ensemble":    j.ensName,
		"scenario":    j.scenario.String(),
		"objective":   j.objName,
		"k":           j.k,
		"exact":       j.exact,
		"age_seconds": time.Since(j.created).Seconds(),
		"progress": map[string]any{
			"phase":      progress.Phase,
			"evaluated":  progress.Evaluated,
			"pruned":     progress.Pruned,
			"best_score": progress.BestScore,
			"best_sites": progress.BestSites,
		},
	}
	if jerr != nil {
		out["error"] = jerr.Error()
	}
	if result != nil {
		out["result"] = map[string]any{
			"sites":             result.Sites,
			"score":             result.Score,
			"evaluated":         result.Evaluated,
			"pruned":            result.Pruned,
			"exact":             result.Exact,
			"candidates":        result.Candidates,
			"distinct_patterns": result.DistinctPatterns,
			"outcome":           renderOutcome(result.Outcome.Config, j.scenario, result.Outcome.Profile),
		}
	}
	return writeJSON(w, out)
}

// writeJSONStatus renders a success response with an explicit status
// code (writeJSON defaults to 200).
func writeJSONStatus(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}
