package serve

// Async ensemble-generation jobs. A small Monte-Carlo run could answer
// inline, but generation cost scales with realizations × assets, so
// POST /v1/ensembles always submits a job and returns 202 with an id;
// GET /v1/ensembles/jobs/{id} polls status and live realization
// progress (wired off hazard's per-realization counter via
// EnsembleConfig.Progress). The machinery mirrors the placement-job
// registry in jobs.go: identical submissions coalesce by scenario
// content id, the generation holds one inflight evaluation slot, jobs
// run under their own trace and deadline, Close cancels running jobs
// (drain-aware), and finished jobs stay pollable up to the retention
// bound. On success the job commits: the ensemble blob persists to the
// store (when configured), the client's quota is charged, and the
// ensemble registers under "u-<scenario id>" for every read endpoint.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
)

// genJob is one submitted generation run.
type genJob struct {
	id         string
	key        string // scenario content id
	ensName    string
	topologyID string
	total      int // requested realizations
	created    time.Time
	// traceID is the generation run's own trace ID ("" with tracing
	// off); submitTrace links back to the submitting request. Both are
	// written once, under the registry lock, before publication.
	traceID     string
	submitTrace string

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    string
	doneReal int
	err      error
	assets   int
}

func (j *genJob) snapshot() (state string, doneReal int, assets int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.doneReal, j.assets, j.err
}

// genRegistry indexes generation jobs by id (polling) and by scenario
// id (coalescing), with the same retention and shutdown semantics as
// jobRegistry.
type genRegistry struct {
	retention int

	mu       sync.Mutex
	byID     map[string]*genJob
	byKey    map[string]*genJob
	finished []*genJob
	closed   bool

	submitted *obs.Counter
	coalesced *obs.Counter
	jdone     *obs.Counter
	jfailed   *obs.Counter
	jcanceled *obs.Counter
	running   *obs.Gauge
}

func newGenRegistry(retention int) *genRegistry {
	rec := obs.Default()
	return &genRegistry{
		retention: retention,
		byID:      make(map[string]*genJob),
		byKey:     make(map[string]*genJob),
		submitted: rec.Counter("serve.genjobs_submitted"),
		coalesced: rec.Counter("serve.genjobs_coalesced"),
		jdone:     rec.Counter("serve.genjobs_done"),
		jfailed:   rec.Counter("serve.genjobs_failed"),
		jcanceled: rec.Counter("serve.genjobs_canceled"),
		running:   rec.Gauge("serve.genjobs_running"),
	}
}

// submit returns the job for key, creating it on first sight; the bool
// reports a coalesced hit. Failed and canceled jobs leave the
// coalescing index (finish), so resubmission retries.
func (g *genRegistry) submit(key string, create func(id string) *genJob) (*genJob, bool, error) {
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
		id = jobID(id)
	}
	j := create(id)
	g.byID[id] = j
	g.byKey[key] = j
	g.submitted.Inc()
	g.running.Inc()
	return j, false, nil
}

func (g *genRegistry) get(id string) (*genJob, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.byID[id]
	return j, ok
}

// ensureDone registers a synthetic finished job for an ensemble that
// already exists (warm restart re-served it, or a previous process
// generated it), so resubmitting clients can poll a consistent job id.
func (g *genRegistry) ensureDone(key, ensName, topologyID string, total, assetCount int) *genJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	if j, ok := g.byKey[key]; ok {
		return j
	}
	id := jobID(key)
	for {
		prev, taken := g.byID[id]
		if !taken || prev.key == key {
			break
		}
		id = jobID(id)
	}
	j := &genJob{
		id: id, key: key, ensName: ensName, topologyID: topologyID,
		total: total, created: time.Now(), done: make(chan struct{}),
		state: jobDone, doneReal: total, assets: assetCount,
	}
	close(j.done)
	g.byID[id] = j
	g.byKey[key] = j
	g.appendFinishedLocked(j)
	return j
}

// finish records a terminal state; first caller wins.
func (g *genRegistry) finish(j *genJob, assetCount int, err error) {
	j.mu.Lock()
	if j.state != jobRunning {
		j.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		j.state, j.assets, j.doneReal = jobDone, assetCount, j.total
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
	g.appendFinishedLocked(j)
	g.mu.Unlock()
}

// appendFinishedLocked retains j and evicts beyond the bound; callers
// hold g.mu.
func (g *genRegistry) appendFinishedLocked(j *genJob) {
	g.finished = append(g.finished, j)
	for len(g.finished) > g.retention {
		old := g.finished[0]
		g.finished = g.finished[1:]
		delete(g.byID, old.id)
		if g.byKey[old.key] == old {
			delete(g.byKey, old.key)
		}
	}
}

// close stops accepting submissions and cancels running jobs.
func (g *genRegistry) close() {
	g.mu.Lock()
	g.closed = true
	var cancels []context.CancelFunc
	for _, j := range g.byID {
		j.mu.Lock()
		if j.state == jobRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	g.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// ---- POST /v1/ensembles ----

func (s *Server) handleEnsembleSubmit(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown()
	}
	data, err := s.readUploadBody(w, r)
	if err != nil {
		return err
	}
	p, err := decodeEnsembleParams(data, s.opt)
	if err != nil {
		return err
	}
	topo, ok := s.uploads.topology(p.topologyID)
	if !ok {
		return validationFailedf("unknown topology %q (upload it first via POST /v1/topologies)", p.topologyID)
	}
	ensName := uploadedEnsembleName(p.scenarioID)
	if ent, err := s.ensemble(ensName); err == nil {
		// Already generated (this process or a warm restart): answer
		// done immediately, with a pollable synthetic job.
		j := s.genjobs.ensureDone(p.scenarioID, ensName, p.topologyID, p.cfg.Realizations, len(ent.assets))
		w.Header().Set("Location", "/v1/ensembles/jobs/"+j.id)
		return writeJSONStatus(w, http.StatusOK, genSubmitResponse(j, true))
	}
	if err := s.uploads.headroom(ClientKey(r)); err != nil {
		return err
	}
	client := ClientKey(r)
	j, coalesced, err := s.genjobs.submit(p.scenarioID, func(id string) *genJob {
		nj := &genJob{
			id:          id,
			key:         p.scenarioID,
			ensName:     ensName,
			topologyID:  p.topologyID,
			total:       p.cfg.Realizations,
			created:     time.Now(),
			done:        make(chan struct{}),
			state:       jobRunning,
			submitTrace: obs.TraceFromContext(r.Context()).ID(),
		}
		s.startGenJob(nj, topo, p, client)
		return nj
	})
	if err != nil {
		return err
	}
	obs.SpanFromContext(r.Context()).Annotate("job_id", j.id)
	if j.traceID != "" {
		w.Header().Set(JobTraceHeader, j.traceID)
	}
	w.Header().Set("Location", "/v1/ensembles/jobs/"+j.id)
	return writeJSONStatus(w, http.StatusAccepted, genSubmitResponse(j, coalesced))
}

func genSubmitResponse(j *genJob, coalesced bool) map[string]any {
	state, _, _, _ := j.snapshot()
	return map[string]any{
		"job_id":       j.id,
		"status":       state,
		"coalesced":    coalesced,
		"ensemble":     j.ensName,
		"topology":     j.topologyID,
		"realizations": j.total,
	}
}

// startGenJob launches the generation runner and its timeout watcher,
// mirroring startJob: the runner holds one inflight evaluation slot so
// generation and interactive queries share the same work bound, and
// the watcher surfaces deadline/Close promptly. On success the runner
// commits the ensemble — store, quota, registry — before finishing.
func (s *Server) startGenJob(j *genJob, topo *uploadedTopology, p *ensembleParams, client string) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.JobTimeout)
	j.cancel = cancel
	// Own trace per job, linked to the submitting request's trace by
	// annotation — see startJob for the rationale.
	tr := s.tracer.Start("ensemble.generate")
	if tr != nil {
		ctx = obs.ContextWithSpan(obs.ContextWithTrace(ctx, tr), tr.Root())
		j.traceID = tr.ID()
		tr.Root().Annotate("job_id", j.id)
		if j.submitTrace != "" {
			tr.Root().Annotate("submit_trace_id", j.submitTrace)
		}
	}
	cfg := p.cfg
	cfg.Workers = s.opt.Workers
	cfg.Progress = func(done, total int) {
		j.mu.Lock()
		j.doneReal = done
		j.mu.Unlock()
	}
	go func() {
		select {
		case <-ctx.Done():
			err := ctx.Err()
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Inc()
				err = fmt.Errorf("job exceeded its %v deadline: %w", s.opt.JobTimeout, err)
			}
			s.genjobs.finish(j, 0, err)
		case <-j.done:
		}
	}()
	go func() {
		defer cancel()
		release, err := s.acquire(ctx)
		if err != nil {
			s.genjobs.finish(j, 0, err)
			tr.Finish()
			return
		}
		e, err := topo.gen.GenerateCtx(ctx, cfg)
		release()
		if err != nil {
			s.genjobs.finish(j, 0, err)
			tr.Finish()
			return
		}
		s.genjobs.finish(j, len(e.AssetIDs()), s.commitEnsemble(j, e, client))
		tr.Finish()
	}()
}

// commitEnsemble persists, charges, and registers one generated
// ensemble. Any error fails the job; the coalescing index is released
// by finish so a resubmission retries.
func (s *Server) commitEnsemble(j *genJob, e *hazard.Ensemble, client string) error {
	var blob bytes.Buffer
	if err := e.WriteJSON(&blob); err != nil {
		return fmt.Errorf("encoding ensemble: %w", err)
	}
	if err := s.uploads.charge(client, 1, int64(blob.Len())); err != nil {
		return err
	}
	if st := s.opt.Store; st != nil {
		if _, err := st.Put("ensemble", j.key, blob.Bytes()); err != nil {
			return fmt.Errorf("persisting ensemble: %w", err)
		}
	}
	hash, err := strconv.ParseUint(j.key, 16, 64)
	if err != nil {
		return fmt.Errorf("scenario id %q not a fingerprint: %w", j.key, err)
	}
	return s.registerEnsemble(j.ensName, e, hash)
}

// ---- GET /v1/ensembles/jobs/{id} ----

func (s *Server) handleEnsembleJob(w http.ResponseWriter, r *http.Request) error {
	if err := checkParams(r.URL.Query()); err != nil {
		return err
	}
	id := r.PathValue("id")
	j, ok := s.genjobs.get(id)
	if !ok {
		return notFoundf("unknown job %q", id)
	}
	if j.traceID != "" {
		w.Header().Set(JobTraceHeader, j.traceID)
	}
	state, doneReal, assetCount, jerr := j.snapshot()
	out := map[string]any{
		"job_id":      j.id,
		"status":      state,
		"ensemble":    j.ensName,
		"topology":    j.topologyID,
		"age_seconds": time.Since(j.created).Seconds(),
		"progress": map[string]any{
			"realizations_done": doneReal,
			"realizations":      j.total,
		},
	}
	if jerr != nil {
		out["error"] = jerr.Error()
	}
	if state == jobDone {
		out["result"] = map[string]any{
			"ensemble":     j.ensName,
			"fingerprint":  j.key,
			"realizations": j.total,
			"assets":       assetCount,
		}
	}
	return writeJSON(w, out)
}
