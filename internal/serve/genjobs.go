package serve

// Async ensemble-generation jobs. A small Monte-Carlo run could answer
// inline, but generation cost scales with realizations × assets, so
// POST /v1/ensembles always submits a job and returns 202 with an id;
// GET /v1/ensembles/jobs/{id} polls status and live realization
// progress (wired off hazard's per-realization counter via
// EnsembleConfig.Progress). Identical submissions coalesce by scenario
// content id, and each generation runs under its own trace
// ("ensemble.generate"); the registry and runner in registry.go do the
// rest. On success the job commits: the ensemble blob persists to the
// store (when configured), the client's quota is charged, and the
// ensemble registers under "u-<scenario id>" for every read endpoint.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
)

// genJob is one submitted generation run; its content key is the
// scenario content id.
type genJob struct {
	jobBase
	ensName    string
	topologyID string
	total      int // requested realizations

	// doneReal and assets are guarded by jobBase.mu.
	doneReal int
	assets   int
}

func (j *genJob) snapshot() (state string, doneReal int, assets int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.doneReal, j.assets, j.err
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
		j := s.genjobs.ensureDone(p.scenarioID, func(id string) *genJob {
			j := &genJob{
				jobBase:    jobBase{id: id, key: p.scenarioID, created: time.Now(), done: make(chan struct{}), state: jobDone},
				ensName:    ensName,
				topologyID: p.topologyID,
				total:      p.cfg.Realizations,
				doneReal:   p.cfg.Realizations,
				assets:     len(ent.assets),
			}
			close(j.done)
			return j
		})
		w.Header().Set("Location", "/v1/ensembles/jobs/"+j.id)
		return writeJSONStatus(w, http.StatusOK, genSubmitResponse(j, true))
	}
	if err := s.uploads.headroom(ClientKey(r)); err != nil {
		return err
	}
	client := ClientKey(r)
	j, coalesced, err := s.genjobs.submit(p.scenarioID, func(id string) *genJob {
		nj := &genJob{
			jobBase: jobBase{
				id:          id,
				key:         p.scenarioID,
				created:     time.Now(),
				submitTrace: obs.TraceFromContext(r.Context()).ID(),
				done:        make(chan struct{}),
				state:       jobRunning,
			},
			ensName:    ensName,
			topologyID: p.topologyID,
			total:      p.cfg.Realizations,
		}
		cfg := p.cfg
		cfg.Workers = s.opt.Workers
		cfg.Progress = func(done, total int) {
			nj.mu.Lock()
			nj.doneReal = done
			nj.mu.Unlock()
		}
		var assets int
		startJob(s, s.genjobs, nj, "ensemble.generate", func(ctx context.Context) error {
			e, err := topo.gen.GenerateCtx(ctx, cfg)
			if err != nil {
				return err
			}
			assets = len(e.AssetIDs())
			return s.commitEnsemble(nj, e, client)
		}, func() { nj.assets, nj.doneReal = assets, nj.total })
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
	if err := CheckParams(r.URL.Query()); err != nil {
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
