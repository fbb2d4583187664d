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

// checkParams rejects query parameters outside the allowed set, so
// typos ("scenrio=both") fail loudly instead of silently running the
// default query. q is the request's already-parsed query: a handler
// parses its query once and validates and reads the same values.
func checkParams(q url.Values, allowed ...string) error {
	for k := range q {
		if !slices.Contains(allowed, k) {
			return badRequestf("unknown parameter %q (allowed: %v)", k, allowed)
		}
	}
	return nil
}

// The query parameters each read endpoint accepts. Package-level, so a
// valid request passes its list to checkParams without building one.
var (
	sweepParams     = []string{"ensemble", "scenario", "config", "primary", "second", "data_center"}
	figureParams    = []string{"ensemble"}
	placementParams = []string{"ensemble", "primary", "scenario", "data_center", "objective", "limit"}
)

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
	if err := checkParams(r.URL.Query()); err != nil {
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
	if err := checkParams(r.URL.Query()); err != nil {
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
	if err := checkParams(r.URL.Query()); err != nil {
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
	if err := checkParams(q, "limit"); err != nil {
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
	if err := checkParams(r.URL.Query()); err != nil {
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

// sweepRequest is the query for GET and POST /v1/sweep. Zero-value
// fields take the documented defaults: the sole loaded ensemble, the
// hurricane scenario, the paper's Honolulu/Waiau/DRFortress placement,
// and all five standard configurations.
type sweepRequest struct {
	Ensemble   string   `json:"ensemble"`
	Scenario   string   `json:"scenario"`
	Configs    []string `json:"configs"`
	Primary    string   `json:"primary"`
	Second     string   `json:"second"`
	DataCenter string   `json:"data_center"`
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	if err := checkParams(q, sweepParams...); err != nil {
		return err
	}
	return s.sweep(w, r, sweepRequest{
		Ensemble:   q.Get("ensemble"),
		Scenario:   q.Get("scenario"),
		Configs:    q["config"],
		Primary:    q.Get("primary"),
		Second:     q.Get("second"),
		DataCenter: q.Get("data_center"),
	})
}

func (s *Server) handleSweepPost(w http.ResponseWriter, r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req sweepRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	return s.sweep(w, r, req)
}

// sweep resolves, validates, evaluates, and renders one sweep query.
// Each stage is recorded as a span of the request's trace (when
// tracing is on), so a slow sweep's trace reads
// validate → cache (→ compile) → evaluate → encode.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request, req sweepRequest) error {
	ctx := r.Context()
	vsp := obs.SpanFromContext(ctx).StartChild("validate")
	ens, scenario, p, configs, universe, err := s.validateSweep(req)
	vsp.End()
	if err != nil {
		return err
	}
	outcomes, err := s.evaluate(ctx, ens, universe, configs, scenario)
	if err != nil {
		return err
	}
	return writeJSONTraced(ctx, w, sweepJSON{
		Ensemble:  ens.name,
		Outcomes:  outcomes,
		Placement: placementJSON{p.Primary, p.Second, p.DataCenter},
		Scenario:  scenario.String(),
	})
}

// sweepJSON is the sweep answer.
type sweepJSON struct {
	Ensemble  string        `json:"ensemble"`
	Outcomes  []outcomeJSON `json:"outcomes"`
	Placement placementJSON `json:"placement"`
	Scenario  string        `json:"scenario"`
}

// validateSweep resolves and validates everything a sweep query names:
// the ensemble, the scenario, the placement-adjusted configurations,
// and their asset universe.
func (s *Server) validateSweep(req sweepRequest) (*ensembleEntry, threat.Scenario, topology.Placement, []topology.Config, []string, error) {
	var zero topology.Placement
	scenario, err := parseScenario(req.Scenario)
	if err != nil {
		return nil, 0, zero, nil, nil, err
	}
	p := analysis.PlacementHWD()
	if req.Primary != "" {
		p.Primary = req.Primary
	}
	if req.Second != "" {
		p.Second = req.Second
	}
	if req.DataCenter != "" {
		p.DataCenter = req.DataCenter
	}
	configs, err := selectConfigs(p, req.Configs)
	if err != nil {
		return nil, 0, zero, nil, nil, err
	}
	universe, err := universeOf(configs)
	if err != nil {
		return nil, 0, zero, nil, nil, badRequestf("%v", err)
	}
	// The ensemble resolves after the checks SweepShape also makes, so
	// a query the router rejects with a 400 gets the same 400 here,
	// not a 404 for its ensemble.
	ens, err := s.ensemble(req.Ensemble)
	if err != nil {
		return nil, 0, zero, nil, nil, err
	}
	if err := ens.checkAssets(universe); err != nil {
		return nil, 0, zero, nil, nil, err
	}
	return ens, scenario, p, configs, universe, nil
}

// parseScenario maps the API's scenario parameter (empty = hurricane).
func parseScenario(name string) (threat.Scenario, error) {
	if name == "" {
		return threat.Hurricane, nil
	}
	sc, err := threat.ParseScenario(name)
	if err != nil {
		return 0, badRequestf("%v", err)
	}
	return sc, nil
}

// selectConfigs materializes the requested configuration names for a
// placement; nil names = the paper's five standard configurations.
func selectConfigs(p topology.Placement, names []string) ([]topology.Config, error) {
	if p.Primary == "" || p.Second == "" || p.DataCenter == "" {
		return nil, badRequestf("placement needs primary, second, and data_center")
	}
	if len(names) == 0 {
		configs, err := topology.StandardConfigs(p)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		return configs, nil
	}
	out := make([]topology.Config, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, badRequestf("duplicate config %q", name)
		}
		seen[name] = true
		var cfg topology.Config
		switch name {
		case "2":
			cfg = topology.NewConfig2(p.Primary)
		case "2-2":
			cfg = topology.NewConfig22(p.Primary, p.Second)
		case "6":
			cfg = topology.NewConfig6(p.Primary)
		case "6-6":
			cfg = topology.NewConfig66(p.Primary, p.Second)
		case "6+6+6":
			cfg = topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
		default:
			return nil, badRequestf("unknown config %q (want 2, 2-2, 6, 6-6, or 6+6+6)", name)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// universeOf validates every configuration and returns the union of
// their site assets in first-occurrence order — the same universe the
// batch pipeline compiles, so serving and batch share cache-key shape
// and results.
func universeOf(configs []topology.Config) ([]string, error) {
	var universe []string
	seen := make(map[string]bool)
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for _, site := range cfg.Sites {
			if !seen[site.AssetID] {
				seen[site.AssetID] = true
				universe = append(universe, site.AssetID)
			}
		}
	}
	return universe, nil
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
		p, err := v.cell(&s.evals, configs[i], capability)
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
	ens, fig, configs, universe, err := s.validateFigure(r)
	vsp.End()
	if err != nil {
		return err
	}
	outcomes, err := s.evaluate(ctx, ens, universe, configs, fig.Scenario)
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

// validateFigure resolves and validates a figure query: the figure ID,
// the ensemble, and the figure's standard configurations and universe.
func (s *Server) validateFigure(r *http.Request) (*ensembleEntry, analysis.Figure, []topology.Config, []string, error) {
	var zero analysis.Figure
	q := r.URL.Query()
	if err := checkParams(q, figureParams...); err != nil {
		return nil, zero, nil, nil, err
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, zero, nil, nil, badRequestf("figure id %q is not a number", r.PathValue("id"))
	}
	fig, err := analysis.FigureByID(id)
	if err != nil {
		return nil, zero, nil, nil, notFoundf("%v", err)
	}
	ens, err := s.ensemble(q.Get("ensemble"))
	if err != nil {
		return nil, zero, nil, nil, err
	}
	configs, err := topology.StandardConfigs(fig.Placement)
	if err != nil {
		return nil, zero, nil, nil, badRequestf("%v", err)
	}
	universe, err := universeOf(configs)
	if err != nil {
		return nil, zero, nil, nil, badRequestf("%v", err)
	}
	if err := ens.checkAssets(universe); err != nil {
		return nil, zero, nil, nil, err
	}
	return ens, fig, configs, universe, nil
}

// ---- /v1/placement ----

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) error {
	ctx := r.Context()
	vsp := obs.SpanFromContext(ctx).StartChild("validate")
	pq, err := s.validatePlacement(r)
	vsp.End()
	if err != nil {
		return err
	}
	candidates, err := s.evaluatePlacements(ctx, pq.ens, pq.universe, pq.placements, pq.configs, pq.scenario, pq.objective)
	if err != nil {
		return err
	}
	total := len(candidates)
	if pq.limit > 0 && pq.limit < len(candidates) {
		candidates = candidates[:pq.limit]
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
		Ensemble:        pq.ens.name,
		Objective:       pq.objName,
		Primary:         pq.primary,
		Scenario:        pq.scenario.String(),
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

// placementQuery is one validated /v1/placement query: everything
// handlePlacement needs after validation.
type placementQuery struct {
	ens        *ensembleEntry
	scenario   threat.Scenario
	primary    string
	objective  placement.Objective
	objName    string
	limit      int
	placements []topology.Placement
	configs    []topology.Config
	universe   []string
}

// validatePlacement resolves and validates a placement query,
// enumerating the candidate set exactly as the batch search does (the
// serving layer only swaps the evaluation path for the cached view).
func (s *Server) validatePlacement(r *http.Request) (placementQuery, error) {
	var pq placementQuery
	q := r.URL.Query()
	if err := checkParams(q, placementParams...); err != nil {
		return pq, err
	}
	ens, err := s.ensemble(q.Get("ensemble"))
	if err != nil {
		return pq, err
	}
	pq.ens = ens
	pq.scenario, err = parseScenario(q.Get("scenario"))
	if err != nil {
		return pq, err
	}
	pq.primary = q.Get("primary")
	if pq.primary == "" {
		return pq, badRequestf("primary parameter required")
	}
	pq.objective, pq.objName = placement.GreenProbability, "green"
	if o := q.Get("objective"); o != "" {
		switch o {
		case "green":
		case "weighted":
			pq.objective, pq.objName = placement.AvailabilityWeighted, "weighted"
		default:
			return pq, badRequestf("unknown objective %q (want green or weighted)", o)
		}
	}
	if l := q.Get("limit"); l != "" {
		pq.limit, err = strconv.Atoi(l)
		if err != nil || pq.limit <= 0 {
			return pq, badRequestf("limit %q is not a positive integer", l)
		}
	}
	req := placement.Request{
		Ensemble:  ens.e,
		Inventory: s.inv,
		Primary:   pq.primary,
		Scenario:  pq.scenario,
		Workers:   s.opt.Workers,
	}
	if dc := q.Get("data_center"); dc != "" {
		pq.placements, err = placement.CandidateSecondSites(req, dc)
	} else {
		pq.placements, err = placement.CandidatePairs(req)
	}
	if err != nil {
		return pq, badRequestf("%v", err)
	}
	pq.configs = make([]topology.Config, len(pq.placements))
	for i, p := range pq.placements {
		pq.configs[i] = topology.NewConfig666(p.Primary, p.Second, p.DataCenter)
	}
	pq.universe, err = universeOf(pq.configs)
	if err != nil {
		return pq, badRequestf("%v", err)
	}
	if err := ens.checkAssets(pq.universe); err != nil {
		return pq, err
	}
	return pq, nil
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
		p, err := v.cell(&s.evals, configs[i], capability)
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
