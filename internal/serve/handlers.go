package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// apiError is an error with an HTTP status and a stable machine code.
// Handlers return it; the route wrapper renders it as the documented
// {"error":{"code","message"}} envelope.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func badRequestf(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, code: "not_found", message: fmt.Sprintf(format, args...)}
}

// ErrorStatus reports the HTTP status and machine code an error from
// this package's request-validation helpers renders as, so the router
// tier (internal/shard) can reject malformed requests with the exact
// envelope a worker would have produced. Errors this package does not
// classify map to 500/"internal".
func ErrorStatus(err error) (status int, code string) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.code
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "timeout"
	}
	return http.StatusInternalServerError, "internal"
}

// routes registers every endpoint on the mux, resolving each
// endpoint's observability instruments once at registration.
func (s *Server) routes() {
	s.handle("GET /v1/healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/readyz", "readyz", s.handleReadyz)
	s.handle("GET /v1/views", "views", s.handleViews)
	s.handle("GET /v1/views/export", "view_export", s.handleViewExport)
	s.handle("POST /v1/views/import", "view_import", s.handleViewImport)
	s.handle("GET /v1/jobs/export", "jobs_export", s.handleJobsExport)
	s.handle("POST /v1/jobs/import", "jobs_import", s.handleJobsImport)
	s.handle("GET /v1/report", "report", s.handleReport)
	s.handle("GET /v1/metrics", "metrics", s.handleMetrics)
	s.handle("GET /v1/traces", "traces", s.handleTraces)
	s.handle("GET /v1/traces/{id}", "trace_get", s.handleTraceGet)
	s.handle("GET /v1/sweep", "sweep", s.handleSweepGet)
	s.handle("POST /v1/sweep", "sweep_post", s.handleSweepPost)
	s.handle("GET /v1/figure/{id}", "figure", s.handleFigure)
	s.handle("GET /v1/placement", "placement", s.handlePlacement)
	s.handle("POST /v1/placement/search", "placement_search", s.handlePlacementSearch)
	s.handle("GET /v1/placement/jobs/{id}", "placement_job", s.handlePlacementJob)
	s.handle("POST /v1/topologies", "topology_upload", s.handleTopologyUpload)
	s.handle("GET /v1/topologies", "topology_list", s.handleTopologyList)
	s.handle("POST /v1/ensembles", "ensemble_submit", s.handleEnsembleSubmit)
	s.handle("GET /v1/ensembles/jobs/{id}", "ensemble_job", s.handleEnsembleJob)
}

// writeError renders an error response and returns the status it
// wrote, for the middleware's status-class histograms and access log.
// Context deadline errors become 504 (the request exceeded
// Options.Timeout); oversized bodies 413; apiErrors their own status;
// everything else 500.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	s.errs.Inc()
	status, code := http.StatusInternalServerError, "internal"
	var ae *apiError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &ae):
		status, code = ae.status, ae.code
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "timeout"
		s.timeouts.Inc()
	case errors.As(err, &mbe):
		status, code = http.StatusRequestEntityTooLarge, "body_too_large"
	}
	WriteError(w, status, code, err.Error())
	return status
}

// errorJSON is the {"error":{"code","message"}} envelope.
type errorJSON struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// WriteError renders the API error envelope with the given status. The
// router tier renders its own rejections through it too, so a client
// sees one envelope whichever tier answered.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	var body errorJSON
	body.Error.Code, body.Error.Message = code, message
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeJSON renders a success response.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// writeJSONTraced is writeJSON recorded as an "encode" span of any
// trace carried by ctx, so a slow trace separates evaluation time from
// response encoding.
func writeJSONTraced(ctx context.Context, w http.ResponseWriter, v any) error {
	sp := obs.SpanFromContext(ctx).StartChild("encode")
	err := writeJSON(w, v)
	sp.End()
	return err
}

// CheckParams rejects query parameters outside the allowed set, so
// typos ("scenrio=both") fail loudly instead of silently running the
// default query. q is the request's already-parsed query: a handler
// parses its query once and validates and reads the same values. The
// router checks its own endpoints with it too. Of several unknown
// parameters it names the least, so the message does not depend on map
// order and a router's rejection matches a worker's byte for byte.
func CheckParams(q url.Values, allowed ...string) error {
	unknown, found := "", false
	for k := range q {
		if !slices.Contains(allowed, k) && (!found || k < unknown) {
			unknown, found = k, true
		}
	}
	if found {
		return badRequestf("unknown parameter %q (allowed: %v)", unknown, allowed)
	}
	return nil
}

// Answer bodies are fixed-order structs, not maps: encoding/json
// renders a struct in field order with no per-request key sort, and
// each struct's fields follow the sorted key order the map-rendered
// bodies had, so the bytes on the wire are unchanged
// (testdata/*.json pins them).

// stateCounts is a profile's outcome count per operational state.
type stateCounts struct {
	Gray   int `json:"gray"`
	Green  int `json:"green"`
	Orange int `json:"orange"`
	Red    int `json:"red"`
}

// stateProbabilities is a profile's outcome share per operational
// state.
type stateProbabilities struct {
	Gray   float64 `json:"gray"`
	Green  float64 `json:"green"`
	Orange float64 `json:"orange"`
	Red    float64 `json:"red"`
}

func renderProbabilities(p *stats.Profile) stateProbabilities {
	return stateProbabilities{
		Gray:   p.Probability(opstate.Gray),
		Green:  p.Probability(opstate.Green),
		Orange: p.Probability(opstate.Orange),
		Red:    p.Probability(opstate.Red),
	}
}

// outcomeJSON is one evaluated (configuration, scenario) cell.
type outcomeJSON struct {
	Config        string             `json:"config"`
	Scenario      string             `json:"scenario"`
	Realizations  int                `json:"realizations"`
	Counts        stateCounts        `json:"counts"`
	Probabilities stateProbabilities `json:"probabilities"`
}

func renderOutcome(cfg topology.Config, scenario threat.Scenario, p *stats.Profile) outcomeJSON {
	return outcomeJSON{
		Config:       cfg.Name,
		Scenario:     scenario.String(),
		Realizations: p.Total(),
		Counts: stateCounts{
			Gray:   p.Count(opstate.Gray),
			Green:  p.Count(opstate.Green),
			Orange: p.Count(opstate.Orange),
			Red:    p.Count(opstate.Red),
		},
		Probabilities: renderProbabilities(p),
	}
}

// placementJSON renders a topology.Placement.
type placementJSON struct {
	Primary    string `json:"primary"`
	Second     string `json:"second"`
	DataCenter string `json:"data_center"`
}

// ---- /v1/healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	type ensembleJSON struct {
		Name         string `json:"name"`
		Realizations int    `json:"realizations"`
		Assets       int    `json:"assets"`
		Fingerprint  string `json:"fingerprint"`
	}
	s.mu.RLock()
	ens := make([]ensembleJSON, 0, len(s.names))
	for _, name := range s.names {
		e := s.ensembles[name]
		ens = append(ens, ensembleJSON{
			Name:         name,
			Realizations: e.e.Size(),
			Assets:       len(e.assets),
			Fingerprint:  fmt.Sprintf("%016x", e.hash),
		})
	}
	s.mu.RUnlock()
	out := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"ensembles":      ens,
		"cache":          map[string]int{"entries": s.cache.len(), "capacity": s.opt.CacheEntries},
		"max_inflight":   s.opt.MaxInflight,
		"topologies":     len(s.uploads.topologyList()),
	}
	if s.dflt != nil {
		out["default_ensemble"] = s.dflt.name
	}
	if st := s.opt.Store; st != nil {
		out["store"] = map[string]any{"objects": st.Len(), "bytes": st.Bytes()}
	}
	return writeJSON(w, out)
}

// ---- /v1/report ----

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	return obs.Default().WriteReport(w, "threatserver", nil)
}

// ---- /v1/metrics ----

// handleMetrics renders every instrument of the process-wide recorder
// in Prometheus text exposition format. With observability disabled it
// still answers 200 with a comment line, so scrapes never error.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return obs.Default().WritePrometheus(w)
}

// ---- /v1/traces ----

// handleTraces returns the tracer's completed-trace ring buffers as
// JSON: the recent ring plus the separately retained slow ring, newest
// first, each trace rendered with its full span tree. limit bounds the
// traces returned per ring.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	if err := CheckParams(q, "limit"); err != nil {
		return err
	}
	limit := 0
	if l := q.Get("limit"); l != "" {
		var err error
		limit, err = strconv.Atoi(l)
		if err != nil || limit <= 0 {
			return badRequestf("limit %q is not a positive integer", l)
		}
	}
	if s.tracer == nil {
		return writeJSON(w, map[string]any{"enabled": false})
	}
	render := func(traces []*obs.Trace) []obs.TraceReport {
		if limit > 0 && limit < len(traces) {
			traces = traces[:limit]
		}
		out := make([]obs.TraceReport, len(traces))
		for i, t := range traces {
			out[i] = t.Report()
		}
		return out
	}
	st := s.tracer.Stats()
	return writeJSON(w, map[string]any{
		"enabled":           true,
		"capacity":          s.tracer.Capacity(),
		"slow_threshold_ns": s.tracer.SlowThreshold().Nanoseconds(),
		"stats": map[string]int64{
			"started":       st.Started,
			"finished":      st.Finished,
			"slow":          st.Slow,
			"dropped_spans": st.DroppedSpans,
		},
		"recent": render(s.tracer.Recent()),
		"slow":   render(s.tracer.Slow()),
	})
}

// handleTraceGet serves one completed trace by ID — the lookup the
// router uses to splice this worker's spans into its own trace when an
// operator asks for a stitched end-to-end tree. The trace for a routed
// request finishes before the router's response does, so a stitching
// fetch that follows the original request always finds it (until ring
// eviction).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	if err := CheckParams(r.URL.Query()); err != nil {
		return err
	}
	if s.tracer == nil {
		return notFoundf("tracing is disabled")
	}
	id := r.PathValue("id")
	t := s.tracer.Find(id)
	if t == nil {
		return notFoundf("unknown trace %q (completed traces are retained for the last %d requests)", id, s.tracer.Capacity())
	}
	return writeJSON(w, t.Report())
}

// ---- /v1/sweep ----

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) error {
	return s.sweep(w, r, func() (SweepQuery, error) { return ParseSweepQuery(r.URL.Query()) })
}

func (s *Server) handleSweepPost(w http.ResponseWriter, r *http.Request) error {
	return s.sweep(w, r, func() (SweepQuery, error) {
		return ParseSweepBody(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	})
}

// sweep parses, resolves, evaluates, and renders one sweep query.
// Each stage is recorded as a span of the request's trace (when
// tracing is on), so a slow sweep's trace reads
// validate → cache (→ compile) → evaluate → encode.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request, parse func() (SweepQuery, error)) error {
	ctx := r.Context()
	vsp := obs.SpanFromContext(ctx).StartChild("validate")
	q, err := parse()
	var ens *ensembleEntry
	if err == nil {
		ens, err = s.ensembleFor(q.Ensemble, q.universe)
	}
	vsp.End()
	if err != nil {
		return err
	}
	outcomes, err := s.evaluate(ctx, ens, q.universe, q.configs, q.scenario)
	if err != nil {
		return err
	}
	p := q.placement
	return writeJSONTraced(ctx, w, sweepJSON{
		Ensemble:  ens.name,
		Outcomes:  outcomes,
		Placement: placementJSON{p.Primary, p.Second, p.DataCenter},
		Scenario:  q.scenario.String(),
	})
}

// sweepJSON is the sweep answer.
type sweepJSON struct {
	Ensemble  string        `json:"ensemble"`
	Outcomes  []outcomeJSON `json:"outcomes"`
	Placement placementJSON `json:"placement"`
	Scenario  string        `json:"scenario"`
}

// ensembleFor resolves a parsed query's ensemble and checks that it
// holds failure data for every asset of the query's universe: the half
// of a read's validation that needs the server's state. It runs after
// the parse, so a request the parse rejects gets the parse's 400, not
// a 404 for its ensemble.
func (s *Server) ensembleFor(name string, universe []string) (*ensembleEntry, error) {
	ens, err := s.ensemble(name)
	if err != nil {
		return nil, err
	}
	if err := ens.checkAssets(universe); err != nil {
		return nil, err
	}
	return ens, nil
}

// checkAssets rejects queries over assets the ensemble has no failure
// data for, before anything is compiled.
func (e *ensembleEntry) checkAssets(universe []string) error {
	for _, id := range universe {
		if !e.assets[id] {
			return badRequestf("ensemble %q has no asset %q", e.name, id)
		}
	}
	return nil
}

// evaluate runs the (config, scenario) cells against the cached view
// for (ensemble, universe), holding one evaluation slot throughout.
// The cell sweep is recorded as an "evaluate" span of the request's
// trace.
func (s *Server) evaluate(ctx context.Context, ens *ensembleEntry, universe []string, configs []topology.Config, scenario threat.Scenario) ([]outcomeJSON, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	v, err := s.viewFor(ctx, ens, universe)
	if err != nil {
		return nil, err
	}
	capability := scenario.Capability()
	out := make([]outcomeJSON, len(configs))
	esp := obs.SpanFromContext(ctx).StartChild("evaluate")
	err = engine.ForEachCtx(obs.ContextWithSpan(ctx, esp), s.opt.Workers, len(configs), func(i int) error {
		p, err := v.cell(s.tables, configs[i], capability)
		if err != nil {
			return err
		}
		out[i] = renderOutcome(configs[i], scenario, p)
		return nil
	})
	esp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ---- /v1/figure/{id} ----

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	vsp := obs.SpanFromContext(ctx).StartChild("validate")
	q, err := ParseFigure(r.PathValue("id"), r.URL.Query())
	var ens *ensembleEntry
	if err == nil {
		ens, err = s.ensembleFor(q.Ensemble, q.universe)
	}
	vsp.End()
	if err != nil {
		return err
	}
	fig := q.fig
	outcomes, err := s.evaluate(ctx, ens, q.universe, q.configs, fig.Scenario)
	if err != nil {
		return err
	}
	return writeJSONTraced(ctx, w, figureJSON{
		Ensemble:  ens.name,
		Figure:    fig.ID,
		Outcomes:  outcomes,
		Placement: placementJSON{fig.Placement.Primary, fig.Placement.Second, fig.Placement.DataCenter},
		Scenario:  fig.Scenario.String(),
		Title:     fig.Title,
	})
}

// figureJSON is the figure answer.
type figureJSON struct {
	Ensemble  string        `json:"ensemble"`
	Figure    int           `json:"figure"`
	Outcomes  []outcomeJSON `json:"outcomes"`
	Placement placementJSON `json:"placement"`
	Scenario  string        `json:"scenario"`
	Title     string        `json:"title"`
}

// ---- /v1/placement ----

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	vsp := obs.SpanFromContext(ctx).StartChild("validate")
	q, err := ParsePlacement(r.URL.Query())
	var c placementCandidates
	if err == nil {
		c, err = s.placementCandidates(&q)
	}
	vsp.End()
	if err != nil {
		return err
	}
	candidates, err := s.evaluatePlacements(ctx, c.ens, c.universe, c.placements, c.configs, q.scenario, q.objective)
	if err != nil {
		return err
	}
	total := len(candidates)
	if q.limit > 0 && q.limit < len(candidates) {
		candidates = candidates[:q.limit]
	}
	out := make([]candidateJSON, len(candidates))
	for i, c := range candidates {
		out[i] = candidateJSON{
			Placement:     placementJSON{c.Placement.Primary, c.Placement.Second, c.Placement.DataCenter},
			Score:         c.Score,
			Probabilities: renderProbabilities(c.Outcome.Profile),
		}
	}
	return writeJSONTraced(ctx, w, placementAnswerJSON{
		Candidates:      out,
		Ensemble:        c.ens.name,
		Objective:       q.objName,
		Primary:         q.primary,
		Scenario:        q.scenario.String(),
		TotalCandidates: total,
	})
}

// candidateJSON is one ranked placement of the placement answer.
type candidateJSON struct {
	Placement     placementJSON      `json:"placement"`
	Score         float64            `json:"score"`
	Probabilities stateProbabilities `json:"probabilities"`
}

// placementAnswerJSON is the placement answer.
type placementAnswerJSON struct {
	Candidates      []candidateJSON `json:"candidates"`
	Ensemble        string          `json:"ensemble"`
	Objective       string          `json:"objective"`
	Primary         string          `json:"primary"`
	Scenario        string          `json:"scenario"`
	TotalCandidates int             `json:"total_candidates"`
}

// placementCandidates is the candidate set of one placement ranking:
// the resolved ensemble, every candidate placement, its 6+6+6
// configuration, and their asset universe.
type placementCandidates struct {
	ens        *ensembleEntry
	placements []topology.Placement
	configs    []topology.Config
	universe   []string
}

// placementCandidates resolves a parsed ranking's ensemble and
// enumerates its candidates from the inventory exactly as the batch
// search does (the serving layer only swaps the evaluation path for
// the cached view).
func (s *Server) placementCandidates(q *PlacementQuery) (placementCandidates, error) {
	var c placementCandidates
	ens, err := s.ensemble(q.Ensemble)
	if err != nil {
		return c, err
	}
	c.ens = ens
	req := placement.Request{
		Ensemble:  ens.e,
		Inventory: s.inv,
		Primary:   q.primary,
		Scenario:  q.scenario,
		Workers:   s.opt.Workers,
	}
	if q.dataCenter != "" {
		c.placements, err = placement.CandidateSecondSites(req, q.dataCenter)
	} else {
		c.placements, err = placement.CandidatePairs(req)
	}
	if err != nil {
		return c, badRequestf("%v", err)
	}
	c.configs = make([]topology.Config, len(c.placements))
	for i, p := range c.placements {
		c.configs[i] = topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
	}
	c.universe, err = universeOf(c.configs)
	if err != nil {
		return c, badRequestf("%v", err)
	}
	if err := ens.checkAssets(c.universe); err != nil {
		return c, err
	}
	return c, nil
}

// evaluatePlacements scores every candidate placement against the
// cached view and ranks them under placement.Rank's deterministic
// contract, so serving and the batch placement CLI order identically.
func (s *Server) evaluatePlacements(ctx context.Context, ens *ensembleEntry, universe []string, placements []topology.Placement, configs []topology.Config, scenario threat.Scenario, objective placement.Objective) ([]placement.Candidate, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	v, err := s.viewFor(ctx, ens, universe)
	if err != nil {
		return nil, err
	}
	capability := scenario.Capability()
	out := make([]placement.Candidate, len(placements))
	esp := obs.SpanFromContext(ctx).StartChild("evaluate")
	err = engine.ForEachCtx(obs.ContextWithSpan(ctx, esp), s.opt.Workers, len(placements), func(i int) error {
		p, err := v.cell(s.tables, configs[i], capability)
		if err != nil {
			return err
		}
		outcome := analysis.Outcome{Config: configs[i], Scenario: scenario, Profile: p}
		out[i] = placement.Candidate{Placement: placements[i], Score: objective(outcome), Outcome: outcome}
		return nil
	})
	esp.End()
	if err != nil {
		return nil, err
	}
	placement.Rank(out)
	return out, nil
}
