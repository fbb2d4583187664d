package serve

// Read-query parsing, shared with the router tier (internal/shard).
// Each read kind — a sweep (GET query or POST body), a figure, a
// placement ranking, a placement search — has one parse that turns the
// request's text into one typed query: it rejects unknown parameters
// and malformed values, fills the documented defaults, and builds the
// configurations and their asset universe. The worker answers from the
// parsed query, adding after it only what needs its state (the
// ensemble, the inventory's placement candidates, the asset check), so
// the parse's error always comes first; the router routes and
// memoizes on the same value, so it rejects exactly what a worker
// would, with the same status and message.
//
// A parsed query renders, from its fields, the ensemble name as given
// (Ensemble), the shard identity (Identity: the compiled view it
// evaluates against, excluding the ensemble; queries sharing a view
// must shard together), and the response key (Key: the method and
// every field the answer depends on, defaults filled, so equal keys
// over equal ensemble content mean byte-identical answers). A
// placement search has no response key: it creates a job and is never
// memoized.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// The query parameters each read endpoint accepts. Package-level, so a
// valid request passes its list to CheckParams without building one.
var (
	sweepParams     = []string{"ensemble", "scenario", "config", "primary", "second", "data_center"}
	figureParams    = []string{"ensemble"}
	placementParams = []string{"ensemble", "primary", "scenario", "data_center", "objective", "limit"}
)

// ---- sweeps ----

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

// SweepQuery is a parsed GET or POST /v1/sweep.
type SweepQuery struct {
	// Ensemble is the ensemble name as given ("" = the default).
	Ensemble  string
	scenario  threat.Scenario
	placement topology.Placement
	configs   []topology.Config
	universe  []string
}

// ParseSweepQuery parses the query of GET /v1/sweep.
func ParseSweepQuery(q url.Values) (SweepQuery, error) {
	if err := CheckParams(q, sweepParams...); err != nil {
		return SweepQuery{}, err
	}
	return parseSweep(sweepRequest{
		Ensemble:   q.Get("ensemble"),
		Scenario:   q.Get("scenario"),
		Configs:    q["config"],
		Primary:    q.Get("primary"),
		Second:     q.Get("second"),
		DataCenter: q.Get("data_center"),
	})
}

// ParseSweepBody parses the JSON body of POST /v1/sweep (see
// decodeRequestBody for its errors).
func ParseSweepBody(body io.Reader) (SweepQuery, error) {
	var req sweepRequest
	if err := decodeRequestBody(body, &req); err != nil {
		return SweepQuery{}, err
	}
	return parseSweep(req)
}

func parseSweep(req sweepRequest) (SweepQuery, error) {
	scenario, err := parseScenario(req.Scenario)
	if err != nil {
		return SweepQuery{}, err
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
		return SweepQuery{}, err
	}
	universe, err := universeOf(configs)
	if err != nil {
		return SweepQuery{}, badRequestf("%v", err)
	}
	return SweepQuery{Ensemble: req.Ensemble, scenario: scenario, placement: p, configs: configs, universe: universe}, nil
}

// Identity is the sweep's shard identity: its asset universe.
func (q *SweepQuery) Identity() string { return universeIdentity(q.universe) }

// Key is the sweep's response key under method. Configuration order is
// part of it: the answer lists outcomes in request order.
func (q *SweepQuery) Key(method string) string {
	p := q.placement
	return responseKey(q.configs, method, "sweep", q.Ensemble, strconv.Itoa(int(q.scenario)), p.Primary, p.Second, p.DataCenter)
}

// ---- figures ----

// FigureQuery is a parsed GET /v1/figure/{id}.
type FigureQuery struct {
	// Ensemble is the ensemble name as given ("" = the default).
	Ensemble string
	fig      analysis.Figure
	configs  []topology.Config
	universe []string
}

// ParseFigure parses GET /v1/figure/{id} from the path's id and the
// query. A figure's universe is its placement's standard-config
// universe, so a figure lands on the same worker as the equivalent
// sweep.
func ParseFigure(id string, q url.Values) (FigureQuery, error) {
	if err := CheckParams(q, figureParams...); err != nil {
		return FigureQuery{}, err
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return FigureQuery{}, badRequestf("figure id %q is not a number", id)
	}
	fig, err := analysis.FigureByID(n)
	if err != nil {
		return FigureQuery{}, notFoundf("%v", err)
	}
	configs, err := topology.StandardConfigs(fig.Placement)
	if err != nil {
		return FigureQuery{}, badRequestf("%v", err)
	}
	universe, err := universeOf(configs)
	if err != nil {
		return FigureQuery{}, badRequestf("%v", err)
	}
	return FigureQuery{Ensemble: q.Get("ensemble"), fig: fig, configs: configs, universe: universe}, nil
}

// Identity is the figure's shard identity: its asset universe.
func (q *FigureQuery) Identity() string { return universeIdentity(q.universe) }

// Key is the figure's response key under method.
func (q *FigureQuery) Key(method string) string {
	return responseKey(nil, method, "figure", q.Ensemble, strconv.Itoa(q.fig.ID))
}

// ---- placement rankings ----

// PlacementQuery is a parsed GET /v1/placement.
type PlacementQuery struct {
	// Ensemble is the ensemble name as given ("" = the default).
	Ensemble   string
	scenario   threat.Scenario
	primary    string
	dataCenter string // "" = rank every data center
	objective  placement.Objective
	objName    string
	limit      int // 0 = every candidate
}

// ParsePlacement parses the query of GET /v1/placement.
func ParsePlacement(q url.Values) (PlacementQuery, error) {
	if err := CheckParams(q, placementParams...); err != nil {
		return PlacementQuery{}, err
	}
	pq := PlacementQuery{
		Ensemble:   q.Get("ensemble"),
		primary:    q.Get("primary"),
		dataCenter: q.Get("data_center"),
		objective:  placement.GreenProbability,
		objName:    "green",
	}
	var err error
	if pq.scenario, err = parseScenario(q.Get("scenario")); err != nil {
		return pq, err
	}
	if pq.primary == "" {
		return pq, badRequestf("primary parameter required")
	}
	switch o := q.Get("objective"); o {
	case "", "green":
	case "weighted":
		pq.objective, pq.objName = placement.AvailabilityWeighted, "weighted"
	default:
		return pq, badRequestf("unknown objective %q (want green or weighted)", o)
	}
	if l := q.Get("limit"); l != "" {
		pq.limit, err = strconv.Atoi(l)
		if err != nil || pq.limit <= 0 {
			return pq, badRequestf("limit %q is not a positive integer", l)
		}
	}
	return pq, nil
}

// Identity is the ranking's shard identity. The candidate universe is
// a pure function of (primary, data_center) over the worker's
// inventory; scenario, objective and limit change only the scoring
// pass over the same compiled view.
func (q *PlacementQuery) Identity() string {
	return "placement\x1f" + q.primary + "\x1f" + q.dataCenter
}

// Key is the ranking's response key under method.
func (q *PlacementQuery) Key(method string) string {
	return responseKey(nil, method, "placement", q.Ensemble, strconv.Itoa(int(q.scenario)),
		q.primary, q.dataCenter, q.objName, strconv.Itoa(q.limit))
}

// ---- placement searches ----

// placementSearchRequest is the body of POST /v1/placement/search.
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

// SearchQuery is a parsed POST /v1/placement/search. The k and
// candidate checks need the worker's inventory, so they run at submit
// on the worker (placement.KRequest.Validate), not here.
type SearchQuery struct {
	// Ensemble is the ensemble name as given ("" = the default).
	Ensemble string
	req      placementSearchRequest
	scenario threat.Scenario
	objName  string
	weights  placement.StateWeights
}

// ParsePlacementSearch parses the JSON body of POST
// /v1/placement/search (see decodeRequestBody for its errors).
func ParsePlacementSearch(body io.Reader) (SearchQuery, error) {
	var sq SearchQuery
	if err := decodeRequestBody(body, &sq.req); err != nil {
		return sq, err
	}
	sq.Ensemble = sq.req.Ensemble
	var err error
	if sq.scenario, err = parseScenario(sq.req.Scenario); err != nil {
		return sq, err
	}
	switch sq.req.Objective {
	case "", "green":
		sq.objName, sq.weights = "green", placement.GreenWeights
	case "weighted":
		sq.objName, sq.weights = "weighted", placement.AvailabilityWeights
	default:
		return sq, badRequestf("unknown objective %q (want green or weighted)", sq.req.Objective)
	}
	return sq, nil
}

// Identity is the search's shard identity: its candidate list as
// given (empty = the worker's full inventory), over which the search
// compiles its view.
func (q *SearchQuery) Identity() string {
	return "search\x1f" + strings.Join(q.req.Candidates, "\x1f")
}

// ---- shared steps ----

// decodeRequestBody strictly decodes a JSON request body into v. A body-size
// error from an http.MaxBytesReader passes through unwrapped, so the
// worker answers it 413; any other decode error is a 400.
func decodeRequestBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestf("invalid request body: %v", err)
	}
	return nil
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

// universeIdentity renders a universe as an identity string, matching
// the universe half of the worker's cache key.
func universeIdentity(universe []string) string {
	return "u\x1f" + strings.Join(universe, "\x1f")
}

// responseKey renders fields, then the names of configs, as one
// response key. Each is written length-prefixed ("5:sweep"), so no two
// field lists render alike and nothing needs escaping.
func responseKey(configs []topology.Config, fields ...string) string {
	size := 0
	for _, f := range fields {
		size += len(f) + 8 // up to seven length digits and the colon
	}
	for _, c := range configs {
		size += len(c.Name) + 8
	}
	var b strings.Builder
	b.Grow(size)
	field := func(s string) {
		var n [20]byte
		b.Write(strconv.AppendInt(n[:0], int64(len(s)), 10))
		b.WriteByte(':')
		b.WriteString(s)
	}
	for _, f := range fields {
		field(f)
	}
	for _, c := range configs {
		field(c.Name)
	}
	return b.String()
}

// ---- write-path shard keys ----

// TopologyUploadKey derives the shard key of POST /v1/topologies from
// the raw body: "upload\x1f" + the topology's content id. Ensemble
// submissions referencing the topology share the key (see
// EnsembleSubmitKey), so a topology and every generation against it
// land on one worker. Decode uses the default limits — a worker with
// tighter limits re-validates authoritatively.
func TopologyUploadKey(body []byte) (string, error) {
	_, _, id, err := decodeTopologyDoc(body, Options{}.defaults())
	if err != nil {
		return "", err
	}
	return "upload\x1f" + id, nil
}

// EnsembleSubmitKey derives the shard key of POST /v1/ensembles: the
// referenced topology's id, so generation runs on the worker holding
// the uploaded topology.
func EnsembleSubmitKey(body []byte) (string, error) {
	p, err := decodeEnsembleParams(body, Options{}.defaults())
	if err != nil {
		return "", err
	}
	return "upload\x1f" + p.topologyID, nil
}

// IsAPIErrorStatus reports whether an HTTP status from a backend is a
// deterministic request-level verdict (safe to return as-is) rather
// than a backend-availability failure the router should retry
// elsewhere: 2xx and 4xx are verdicts, 5xx and transport errors are
// not.
func IsAPIErrorStatus(status int) bool {
	return status/100 == 2 || status/100 == 4
}
