package serve

// Shard-identity derivation, shared with the router tier. The router
// must send every query that touches one compiled view to the same
// backend worker, or views duplicate across workers and the per-worker
// LRU stops being a partition of the key space. The identity is
// derived here — next to the validation code that defines the cache
// key — so the router and the worker can never disagree about which
// queries share a view.
//
// The identity deliberately excludes the ensemble fingerprint (the
// router resolves names to fingerprints from worker health responses)
// and anything that does not change the compiled view: two sweeps over
// different config subsets of the same universe, or two placement
// rankings under different objectives, share a view and therefore a
// shard.

import (
	"bytes"
	"encoding/json"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/topology"
)

// QueryShape is the routing identity of one request: which ensemble it
// names, the identity string all queries sharing its compiled view
// agree on, and whether identical in-flight requests may share one
// response.
type QueryShape struct {
	// Ensemble is the named ensemble ("" = the backend's default).
	Ensemble string
	// Identity keys the compiled view the query evaluates against,
	// excluding the ensemble: queries with equal (Ensemble, Identity)
	// must shard together.
	Identity string
	// Batchable reports that the request is a pure read whose response
	// depends only on the request bytes, so concurrent identical
	// requests may be collapsed into one backend call.
	Batchable bool
}

// SweepShape derives the shard identity of GET /v1/sweep (body nil) or
// POST /v1/sweep (body is the raw JSON). It validates exactly the
// request surface it parses, so the router rejects malformed sweeps
// without spending a backend round trip.
func SweepShape(q url.Values, body []byte) (QueryShape, error) {
	var req sweepRequest
	if body != nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return QueryShape{}, badRequestf("invalid request body: %v", err)
		}
	} else {
		req = sweepRequest{
			Ensemble:   q.Get("ensemble"),
			Scenario:   q.Get("scenario"),
			Configs:    q["config"],
			Primary:    q.Get("primary"),
			Second:     q.Get("second"),
			DataCenter: q.Get("data_center"),
		}
	}
	if _, err := parseScenario(req.Scenario); err != nil {
		return QueryShape{}, err
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
		return QueryShape{}, err
	}
	universe, err := universeOf(configs)
	if err != nil {
		return QueryShape{}, badRequestf("%v", err)
	}
	return QueryShape{
		Ensemble:  req.Ensemble,
		Identity:  universeIdentity(universe),
		Batchable: true,
	}, nil
}

// FigureShape derives the shard identity of GET /v1/figure/{id}. A
// figure's universe is its placement's standard-config universe, so a
// figure query lands on the same worker as the equivalent sweep.
func FigureShape(id string, q url.Values) (QueryShape, error) {
	n, err := strconv.Atoi(id)
	if err != nil {
		return QueryShape{}, badRequestf("figure id %q is not a number", id)
	}
	fig, err := analysis.FigureByID(n)
	if err != nil {
		return QueryShape{}, notFoundf("%v", err)
	}
	configs, err := topology.StandardConfigs(fig.Placement)
	if err != nil {
		return QueryShape{}, badRequestf("%v", err)
	}
	universe, err := universeOf(configs)
	if err != nil {
		return QueryShape{}, badRequestf("%v", err)
	}
	return QueryShape{
		Ensemble:  q.Get("ensemble"),
		Identity:  universeIdentity(universe),
		Batchable: true,
	}, nil
}

// PlacementShape derives the shard identity of GET /v1/placement. The
// candidate universe is a pure function of (primary, data_center) over
// the worker's inventory, so those two parameters are the identity;
// scenario, objective, and limit change only the scoring pass over the
// same compiled view.
func PlacementShape(q url.Values) (QueryShape, error) {
	primary := q.Get("primary")
	if primary == "" {
		return QueryShape{}, badRequestf("primary parameter required")
	}
	if _, err := parseScenario(q.Get("scenario")); err != nil {
		return QueryShape{}, err
	}
	return QueryShape{
		Ensemble:  q.Get("ensemble"),
		Identity:  "placement\x1f" + primary + "\x1f" + q.Get("data_center"),
		Batchable: true,
	}, nil
}

// PlacementSearchShape derives the shard identity of POST
// /v1/placement/search from the raw JSON body. The search compiles a
// view over its candidate universe, so the candidate list (empty =
// the worker's full inventory) is the identity.
func PlacementSearchShape(body []byte) (QueryShape, error) {
	var req placementSearchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return QueryShape{}, badRequestf("invalid request body: %v", err)
	}
	if _, err := parseScenario(req.Scenario); err != nil {
		return QueryShape{}, err
	}
	return QueryShape{
		Ensemble: req.Ensemble,
		Identity: "search\x1f" + strings.Join(req.Candidates, "\x1f"),
		// Submissions are idempotent by content key on the worker, but
		// the 202 response carries submission-specific state (coalesced),
		// so they are forwarded individually.
		Batchable: false,
	}, nil
}

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

// universeIdentity renders a universe as an identity string, matching
// the universe half of the worker's cache key.
func universeIdentity(universe []string) string {
	return "u\x1f" + strings.Join(universe, "\x1f")
}

// ResponseKey is the full response identity of a read: method, path,
// canonical query (q as the shape function parsed it), and body. Two
// requests over the same ensemble content with equal response keys are
// the same read and may share one answer. The query is canonical up to
// key order: keys are sorted, each key's values keep their order, and
// every key and value is written length-prefixed, so no two distinct
// queries render alike and nothing needs escaping.
func ResponseKey(method, path string, q url.Values, body []byte) string {
	var stack [8]string
	keys := stack[:0]
	size := len(method) + len(path) + len(body) + 3
	for k, vs := range q {
		keys = append(keys, k)
		for _, v := range vs {
			size += len(k) + len(v) + 8
		}
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	b.WriteString(method)
	b.WriteByte(' ')
	b.WriteString(path)
	b.WriteByte('?')
	field := func(s string) {
		var n [20]byte
		b.Write(strconv.AppendInt(n[:0], int64(len(s)), 10))
		b.WriteByte(':')
		b.WriteString(s)
	}
	for _, k := range keys {
		for _, v := range q[k] {
			field(k)
			field(v)
		}
	}
	if len(body) > 0 {
		b.WriteByte('\n')
		b.Write(body)
	}
	return b.String()
}

// IsAPIErrorStatus reports whether an HTTP status from a backend is a
// deterministic request-level verdict (safe to return as-is) rather
// than a backend-availability failure the router should retry
// elsewhere: 2xx and 4xx are verdicts, 5xx and transport errors are
// not.
func IsAPIErrorStatus(status int) bool {
	return status/100 == 2 || status/100 == 4
}
