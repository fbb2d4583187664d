package serve

// Async k-site placement search jobs. A pair sweep answers within a
// request deadline; a k-site search over thousands of candidates does
// not, so POST /v1/placement/search submits a job and returns 202
// with an id, and GET /v1/placement/jobs/{id} polls status, live
// progress (evaluated, pruned, current best), and the final result.
//
// Validation is synchronous (bad requests fail at submit, not
// asynchronously), identical submissions coalesce onto one job by
// content key (ensemble fingerprint plus the full search shape), and
// each job runs under its own trace ("placement.job"); the registry
// and runner in registry.go do the rest.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/threat"
)

// job is one submitted k-site search.
type job struct {
	jobBase
	ensName  string
	scenario threat.Scenario
	objName  string
	k        int
	exact    bool

	// progress and result are guarded by jobBase.mu.
	progress placement.KProgress
	result   *placement.KResult
}

// snapshot reads the job's mutable state under its lock.
func (j *job) snapshot() (state string, progress placement.KProgress, result *placement.KResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.progress, j.result, j.err
}

// exportDone renders every finished (done) placement job as a wire
// envelope, oldest first — the handoff order, so retention eviction on
// the receiving side keeps the newest results.
func exportDone(g *registry[*job]) []jobEnvelope {
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

// ---- POST /v1/placement/search ----

func (s *Server) handlePlacementSearch(w http.ResponseWriter, r *http.Request) error {
	q, err := ParsePlacementSearch(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	if err != nil {
		return err
	}
	ens, err := s.ensemble(q.Ensemble)
	if err != nil {
		return err
	}
	kreq := placement.KRequest{
		Ensemble:      ens.e,
		Inventory:     s.inv,
		Candidates:    q.req.Candidates,
		K:             q.req.K,
		Scenario:      q.scenario,
		Weights:       q.weights,
		Workers:       s.opt.Workers,
		Exact:         q.req.Exact,
		MaxCandidates: q.req.MaxCandidates,
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
		ens.hash, q.scenario, q.objName, q.req.K, q.req.Exact, q.req.MaxCandidates,
		strings.Join(cands, "\x1f"))
	j, coalesced, err := s.jobs.submit(key, func(id string) *job {
		nj := &job{
			jobBase: jobBase{
				id:          id,
				key:         key,
				created:     time.Now(),
				submitTrace: obs.TraceFromContext(r.Context()).ID(),
				done:        make(chan struct{}),
				state:       jobRunning,
			},
			ensName:  ens.name,
			scenario: q.scenario,
			objName:  q.objName,
			k:        q.req.K,
			exact:    q.req.Exact,
		}
		kreq.Progress = func(p placement.KProgress) {
			nj.mu.Lock()
			nj.progress = p
			nj.mu.Unlock()
		}
		var res *placement.KResult
		startJob(s, s.jobs, nj, "placement.job", func(ctx context.Context) (err error) {
			res, err = placement.SearchKCtx(ctx, kreq)
			return err
		}, func() { nj.result = res })
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

// ---- GET /v1/placement/jobs/{id} ----

func (s *Server) handlePlacementJob(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
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
