package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
)

// Options configures a Router. The zero value of every field except
// Backends is usable; defaults() fills it in.
type Options struct {
	// Backends is the worker pool, one base URL per worker
	// ("http://host:port" or "host:port"). Required, order-significant:
	// the ring hashes backend indexes, so a stable flag order keeps the
	// key→worker assignment stable across router restarts.
	Backends []string
	// Replicas is the number of ring points per backend (0 = 64).
	Replicas int
	// Timeout is the per-request deadline, covering every retry and
	// hedge for the request (0 = 15s).
	Timeout time.Duration
	// Hedge launches a second backend attempt if the first has not
	// answered within this delay (0 = hedging off). Only the reads the
	// memo serves (sweeps, figures, placement rankings) hedge;
	// submissions never race two workers.
	Hedge time.Duration
	// HealthInterval is the backend probe period (0 = 2s).
	HealthInterval time.Duration
	// MaxBodyBytes bounds POST bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// MaxUploadBytes bounds topology/ensemble upload bodies, which are
	// legitimately larger than query bodies (0 = 4 MiB). Workers
	// re-check against their own limit.
	MaxUploadBytes int64
	// MaxJobRoutes bounds the job_id→backend table (0 = 4096).
	MaxJobRoutes int
}

func (o Options) defaults() Options {
	if o.Replicas == 0 {
		o.Replicas = 64
	}
	if o.Timeout == 0 {
		o.Timeout = 15 * time.Second
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxUploadBytes == 0 {
		o.MaxUploadBytes = 4 << 20
	}
	if o.MaxJobRoutes == 0 {
		o.MaxJobRoutes = 4096
	}
	return o
}

// Router consistent-hashes queries onto the backend pool. See the
// package comment for the routing model.
type Router struct {
	opt      Options
	backends []*backend
	ring     *Ring
	memo     *memo
	jobs     *jobRoutes
	mux      *http.ServeMux
	start    time.Time

	retries   *obs.Counter
	hedges    *obs.Counter
	noBackend *obs.Counter

	// tracer is resolved once at construction (obs.DefaultTracer), like
	// the worker's — nil means router-side tracing is off and the
	// request path pays only nil checks.
	tracer *obs.Tracer

	stop   context.CancelFunc
	probed sync.WaitGroup
}

// routerError is a router-originated API error, rendered with the same
// {"error":{"code","message"}} envelope the workers use.
type routerError struct {
	status  int
	code    string
	message string
}

func (e *routerError) Error() string { return e.message }

// errNoBackend is the typed verdict when every candidate backend
// failed at the transport or 5xx level: the request was never answered
// and may be retried by the client.
func errNoBackend(detail string) error {
	return &routerError{status: http.StatusServiceUnavailable, code: "backend_unavailable", message: detail}
}

// New builds a router over the backend pool and starts its health
// prober. Callers own shutdown via Close.
func New(opt Options) (*Router, error) {
	opt = opt.defaults()
	if len(opt.Backends) == 0 {
		return nil, errors.New("shard: no backends")
	}
	rec := obs.Default()
	hc := &http.Client{} // per-request contexts carry the deadlines
	rt := &Router{
		opt:       opt,
		ring:      NewRing(len(opt.Backends), opt.Replicas),
		memo:      newMemo(rec),
		jobs:      newJobRoutes(opt.MaxJobRoutes),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		retries:   rec.Counter("shard.retries"),
		hedges:    rec.Counter("shard.hedges"),
		noBackend: rec.Counter("shard.no_backend"),
		tracer:    obs.DefaultTracer(),
	}
	seen := make(map[string]bool, len(opt.Backends))
	for i, base := range opt.Backends {
		base = strings.TrimSpace(base)
		if base == "" {
			return nil, fmt.Errorf("shard: backend %d is empty", i)
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if seen[base] {
			return nil, fmt.Errorf("shard: duplicate backend %s", base)
		}
		seen[base] = true
		b, err := newBackend(i, base, hc, rec)
		if err != nil {
			return nil, err
		}
		rt.backends = append(rt.backends, b)
	}
	rt.routes()
	ctx, cancel := context.WithCancel(context.Background())
	rt.stop = cancel
	rt.probed.Add(1)
	go rt.prober(ctx)
	return rt, nil
}

// Close stops the health prober. In-flight requests finish on their
// own deadlines.
func (rt *Router) Close() {
	rt.stop()
	rt.probed.Wait()
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// prober keeps backend health and ensemble fingerprints fresh. The
// first sweep runs immediately so the router can route as soon as the
// pool answers its first probe.
func (rt *Router) prober(ctx context.Context) {
	defer rt.probed.Done()
	t := time.NewTicker(rt.opt.HealthInterval)
	defer t.Stop()
	for {
		rt.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// minProbeTimeout floors the per-probe deadline. A worker busy
// generating an ensemble can answer its health probe slower than a
// short probe period; timing the probe out at the period would mark
// it down and fail its keys over to workers that may not hold their
// data.
const minProbeTimeout = 2 * time.Second

// probeAll probes every backend concurrently, each probe bounded by
// the health interval or minProbeTimeout, whichever is longer.
func (rt *Router) probeAll(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, max(rt.opt.HealthInterval, minProbeTimeout))
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.probe(pctx) // probe records the outcome on the backend
		}(b)
	}
	wg.Wait()
}

// routes registers the router surface: the worker query endpoints it
// shards, plus its own health/metrics endpoints.
func (rt *Router) routes() {
	rt.handle("GET /v1/healthz", "healthz", rt.handleHealthz)
	rt.handle("GET /v1/readyz", "readyz", rt.handleReadyz)
	rt.handle("GET /v1/metrics", "metrics", rt.handleMetrics)
	rt.handle("GET /v1/traces", "traces", rt.handleTraces)
	rt.handle("GET /v1/traces/{id}", "trace_get", rt.handleTraceGet)
	rt.handle("GET /v1/sweep", "sweep", rt.handleSweepGet)
	rt.handle("POST /v1/sweep", "sweep_post", rt.handleSweepPost)
	rt.handle("GET /v1/figure/{id}", "figure", rt.handleFigure)
	rt.handle("GET /v1/placement", "placement", rt.handlePlacement)
	rt.handle("POST /v1/placement/search", "placement_search", rt.handlePlacementSearch)
	rt.handle("GET /v1/placement/jobs/{id}", "placement_job", rt.handleJobPoll)
	rt.handle("POST /v1/topologies", "topology_upload", rt.handleTopologyUpload)
	rt.handle("GET /v1/topologies", "topology_list", rt.handleTopologyList)
	rt.handle("POST /v1/ensembles", "ensemble_submit", rt.handleEnsembleSubmit)
	rt.handle("GET /v1/ensembles/jobs/{id}", "ensemble_job", rt.handleJobPoll)
}

// handle wraps one endpoint with the router's request machinery:
// request counter, latency histogram, per-request deadline, tracing,
// and error rendering. Instruments resolve once at registration. With
// tracing on, the request runs under a trace whose ID every proxied
// call propagates to the workers (see backend.forward); an inbound
// traceparent is adopted, so a client-side tracer can span the client →
// router → worker path under one ID too.
func (rt *Router) handle(pattern, name string, fn func(http.ResponseWriter, *http.Request) error) {
	rec := obs.Default()
	reqs := rec.Counter("shard.requests." + name)
	lat := rec.Histogram("shard.latency_ns." + name)
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
		var trace *obs.Trace
		if rt.tracer != nil {
			if tp, perr := obs.ParseTraceParent(r.Header.Get("traceparent")); perr == nil {
				trace = rt.tracer.StartRemote(name, tp)
			} else {
				trace = rt.tracer.Start(name)
			}
			ctx = obs.ContextWithSpan(obs.ContextWithTrace(ctx, trace), trace.Root())
			w.Header().Set("X-Trace-Id", trace.ID())
		}
		err := fn(w, r.WithContext(ctx))
		cancel()
		lat.Observe(int64(time.Since(start)))
		if err != nil {
			rt.writeError(w, err)
		}
		trace.Finish()
	})
}

// writeError renders the error envelope. Router-originated errors
// carry their own status; serve-package validation errors map through
// serve.ErrorStatus so the router rejects exactly as a worker would.
func (rt *Router) writeError(w http.ResponseWriter, err error) {
	var re *routerError
	var status int
	var code string
	if errors.As(err, &re) {
		status, code = re.status, re.code
		if code == "backend_unavailable" {
			rt.noBackend.Inc()
		}
	} else {
		status, code = serve.ErrorStatus(err)
	}
	serve.WriteError(w, status, code, err.Error())
}

// writeResponse replays a buffered backend response to the client,
// tagging which worker answered.
func (rt *Router) writeResponse(w http.ResponseWriter, res *response) error {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	for k, v := range res.header {
		w.Header().Set(k, v)
	}
	w.Header().Set("X-Shard-Backend", strconv.Itoa(res.backend))
	w.WriteHeader(res.status)
	_, err := w.Write(res.body)
	return err
}

// resolve renders a parsed read's ensemble name and shard identity as
// a ring key and, when the named ensemble lives on only part of the
// healthy pool (an uploaded scenario, learned from worker healthz), the
// owning backends. Names resolve to content fingerprints from backend
// health responses, so renaming an ensemble (or omitting the name where
// workers advertise a default) cannot split one view across workers; an
// unresolvable name routes by name (fp is then "") and lets the owning
// worker return the authoritative 404. A nil owners slice means every
// healthy worker can answer (startup-loaded ensembles) and plain ring
// routing applies.
func (rt *Router) resolve(ensemble, identity string) (fp, key string, owners []*backend) {
	healthy := 0
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			continue
		}
		healthy++
		f, ok := b.fingerprint(ensemble)
		if !ok {
			continue
		}
		if fp == "" {
			fp = f
		}
		if f == fp {
			owners = append(owners, b)
		}
	}
	if fp == "" {
		return "", "name\x1f" + ensemble + "\x1f" + identity, nil
	}
	key = fp + "\x1f" + identity
	if len(owners) == healthy {
		return fp, key, nil
	}
	return fp, key, owners
}

// candidatesFor orders the fetch sequence for a key: the owning
// backends first (ring order), then the rest as failover of last
// resort. With no owner constraint it is plain candidates ordering.
func (rt *Router) candidatesFor(key string, owners []*backend) []*backend {
	cands := rt.candidates(key)
	if len(owners) == 0 {
		return cands
	}
	own := make(map[*backend]bool, len(owners))
	for _, b := range owners {
		own[b] = true
	}
	first := make([]*backend, 0, len(cands))
	var rest []*backend
	for _, b := range cands {
		if own[b] {
			first = append(first, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(first, rest...)
}

// candidates orders the key's ring sequence for fetching: healthy
// backends first (in ring order), dead ones after as a last resort for
// the window where every probe is stale.
func (rt *Router) candidates(key string) []*backend {
	seq := rt.ring.Seq(key)
	live := make([]*backend, 0, len(seq))
	var dead []*backend
	for _, i := range seq {
		b := rt.backends[i]
		if b.healthy.Load() {
			live = append(live, b)
		} else {
			dead = append(dead, b)
		}
	}
	return append(live, dead...)
}

// attempt is one backend fetch outcome in flight.
type attempt struct {
	res *response
	err error
}

// fetch runs the request against the candidate sequence until one
// backend produces a deterministic verdict (2xx/4xx). Transport
// failures and 5xx responses fail over to the next candidate; with
// hedging enabled, a slow first candidate races the second and the
// first verdict wins. Exhausting the pool is a backend_unavailable
// verdict.
//
// Without an armed hedge (the default) nothing races, so each attempt
// runs on the calling goroutine and failover is sequential: no
// goroutine, channel or select per request. Only a hedged read starts
// its attempts on goroutines. Both share the one failover loop below.
func (rt *Router) fetch(ctx context.Context, cands []*backend, c call, mayHedge bool) (*response, error) {
	if len(cands) == 0 {
		return nil, errNoBackend("no backends configured")
	}
	var (
		ch     chan attempt // nil: attempts run inline
		hedgeC <-chan time.Time
		inline attempt // the inline attempt's outcome
	)
	if mayHedge && rt.opt.Hedge > 0 && len(cands) > 1 {
		ch = make(chan attempt, len(cands))
		t := time.NewTimer(rt.opt.Hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	launched := 0
	launch := func() {
		b := cands[launched]
		launched++
		if ch == nil {
			inline.res, inline.err = rt.forwardSpanned(ctx, b, c)
			return
		}
		go func() {
			res, err := rt.forwardSpanned(ctx, b, c)
			ch <- attempt{res: res, err: err}
		}()
	}
	launch()
	var lastErr error
	done := 0
	for {
		var a attempt
		if ch == nil {
			a = inline
			// A transport failure past the deadline is the deadline's
			// verdict, as when the select below sees ctx.Done first.
			if a.err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
		} else {
			select {
			case a = <-ch:
			case <-hedgeC:
				hedgeC = nil
				if launched < len(cands) {
					rt.hedges.Inc()
					launch()
				}
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done++
		if a.err == nil && serve.IsAPIErrorStatus(a.res.status) {
			return a.res, nil
		}
		if a.err != nil {
			lastErr = a.err
		} else {
			lastErr = fmt.Errorf("backend %d answered %d", a.res.backend, a.res.status)
		}
		if launched < len(cands) {
			rt.retries.Inc()
			launch()
		} else if done == launched {
			return nil, errNoBackend(fmt.Sprintf("all %d backends failed: %v", launched, lastErr))
		}
	}
}

// forwardSpanned wraps one backend call in a client-call span named
// after the backend ("backend.N"). The span carries the backend index
// note the trace stitcher keys on, and its ID travels to the worker as
// the traceparent parent, so the worker's trace splices back under
// exactly this span. All span operations are nil no-ops with tracing
// off, and the pre-rendered names mean the off path allocates nothing.
func (rt *Router) forwardSpanned(ctx context.Context, b *backend, c call) (*response, error) {
	sp := obs.SpanFromContext(ctx).StartChild(b.spanName)
	sp.Annotate("backend", b.indexStr)
	res, err := b.forward(obs.ContextWithSpan(ctx, sp), c)
	if sp != nil {
		if err != nil {
			sp.Annotate("error", "transport")
		} else {
			sp.Annotate("status", strconv.Itoa(res.status))
		}
	}
	sp.End()
	return res, err
}

// serveSharded is the common read path for a parsed read: derive the
// shard key from its ensemble name and identity, answer repeats of its
// response key from the memo, share identical in-flight misses, fetch
// with failover, replay the winner.
func (rt *Router) serveSharded(w http.ResponseWriter, r *http.Request, ensemble, identity, respKey string, body []byte) error {
	ctx := r.Context()
	fp, key, owners := rt.resolve(ensemble, identity)
	c := newCall(r, body)
	// An answer is stored only when the backend that produced it
	// advertises the fingerprint the key names: a failover onto a worker
	// holding other content under the name is served, not remembered.
	// An unresolved name (fp "") is never stored.
	var admit func(*response) bool
	if fp != "" {
		admit = func(res *response) bool {
			got, ok := rt.backends[res.backend].fingerprint(ensemble)
			return ok && got == fp
		}
	}
	sp := obs.SpanFromContext(ctx).StartChild("memo")
	mctx := obs.ContextWithSpan(ctx, sp)
	res, err := rt.memo.do(mctx, key+"\x1e"+respKey, func() (*response, error) {
		return rt.fetch(mctx, rt.candidatesFor(key, owners), c, true)
	}, admit)
	sp.End()
	if err != nil {
		return err
	}
	return rt.writeResponse(w, res)
}

// readBody buffers a bounded POST body.
func (rt *Router) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opt.MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > rt.opt.MaxBodyBytes {
		return nil, &routerError{status: http.StatusRequestEntityTooLarge, code: "body_too_large",
			message: fmt.Sprintf("request body exceeds %d bytes", rt.opt.MaxBodyBytes)}
	}
	return body, nil
}

func (rt *Router) handleSweepGet(w http.ResponseWriter, r *http.Request) error {
	sp := obs.SpanFromContext(r.Context()).StartChild("validate")
	q, err := serve.ParseSweepQuery(r.URL.Query())
	sp.End()
	if err != nil {
		return err
	}
	return rt.serveSharded(w, r, q.Ensemble, q.Identity(), q.Key(r.Method), nil)
}

func (rt *Router) handleSweepPost(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readBody(r)
	if err != nil {
		return err
	}
	sp := obs.SpanFromContext(r.Context()).StartChild("validate")
	q, err := serve.ParseSweepBody(bytes.NewReader(body))
	sp.End()
	if err != nil {
		return err
	}
	return rt.serveSharded(w, r, q.Ensemble, q.Identity(), q.Key(r.Method), body)
}

func (rt *Router) handleFigure(w http.ResponseWriter, r *http.Request) error {
	sp := obs.SpanFromContext(r.Context()).StartChild("validate")
	q, err := serve.ParseFigure(r.PathValue("id"), r.URL.Query())
	sp.End()
	if err != nil {
		return err
	}
	return rt.serveSharded(w, r, q.Ensemble, q.Identity(), q.Key(r.Method), nil)
}

func (rt *Router) handlePlacement(w http.ResponseWriter, r *http.Request) error {
	sp := obs.SpanFromContext(r.Context()).StartChild("validate")
	q, err := serve.ParsePlacement(r.URL.Query())
	sp.End()
	if err != nil {
		return err
	}
	return rt.serveSharded(w, r, q.Ensemble, q.Identity(), q.Key(r.Method), nil)
}

// handlePlacementSearch forwards a submission to the shard owning its
// candidate universe and learns the resulting job's route.
// Submissions are idempotent by content key on the worker, but the 202
// carries submission-specific state (coalesced), so each is forwarded
// on its own, never memoized or hedged.
func (rt *Router) handlePlacementSearch(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readBody(r)
	if err != nil {
		return err
	}
	sp := obs.SpanFromContext(r.Context()).StartChild("validate")
	q, err := serve.ParsePlacementSearch(bytes.NewReader(body))
	sp.End()
	if err != nil {
		return err
	}
	_, key, owners := rt.resolve(q.Ensemble, q.Identity())
	return rt.forwardSubmission(w, r, rt.candidatesFor(key, owners), body)
}

// forwardSubmission forwards a job-creating POST and learns the
// resulting job's route from the 202 (created/coalesced) or 200
// (already done) response.
func (rt *Router) forwardSubmission(w http.ResponseWriter, r *http.Request, cands []*backend, body []byte) error {
	res, err := rt.fetch(r.Context(), cands, newCall(r, body), false)
	if err != nil {
		return err
	}
	if res.status == http.StatusAccepted || res.status == http.StatusOK {
		var out struct {
			JobID string `json:"job_id"`
		}
		if json.Unmarshal(res.body, &out) == nil && out.JobID != "" {
			rt.jobs.learn(out.JobID, res.backend)
		}
	}
	return rt.writeResponse(w, res)
}

// handleJobPoll polls a job (placement search or ensemble generation —
// both share id derivation and poll semantics) on its learned backend,
// falling back to a broadcast across the pool for unknown or relocated
// jobs (a poll after a warm handoff finds the job on the successor this
// way).
func (rt *Router) handleJobPoll(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	c := newCall(r, nil)
	if idx, ok := rt.jobs.lookup(id); ok {
		b := rt.backends[idx]
		if b.healthy.Load() {
			res, err := rt.forwardSpanned(r.Context(), b, c)
			if err == nil && serve.IsAPIErrorStatus(res.status) && res.status != http.StatusNotFound {
				return rt.writeResponse(w, res)
			}
		}
	}
	var notFound *response
	var lastErr error
	for _, b := range rt.candidates("job\x1f" + id) {
		res, err := rt.forwardSpanned(r.Context(), b, c)
		if err != nil {
			lastErr = err
			continue
		}
		if res.status == http.StatusNotFound {
			notFound = res
			continue
		}
		if serve.IsAPIErrorStatus(res.status) {
			rt.jobs.learn(id, b.index)
			return rt.writeResponse(w, res)
		}
		lastErr = fmt.Errorf("backend %d answered %d", b.index, res.status)
	}
	if notFound != nil {
		return rt.writeResponse(w, notFound)
	}
	if lastErr == nil {
		lastErr = errors.New("no backends configured")
	}
	return errNoBackend(fmt.Sprintf("job %s: %v", id, lastErr))
}

// readUploadBody buffers an upload body under the upload limit,
// rejecting oversize bodies with the write path's typed
// payload_too_large error (matching what a worker would answer).
func (rt *Router) readUploadBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opt.MaxUploadBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > rt.opt.MaxUploadBytes {
		return nil, &routerError{status: http.StatusRequestEntityTooLarge, code: "payload_too_large",
			message: fmt.Sprintf("upload body exceeds %d bytes", rt.opt.MaxUploadBytes)}
	}
	return body, nil
}

// handleTopologyUpload shards an upload by its content id, so the
// topology and every later generation against it land on one worker.
// A document the router cannot derive a key from is still forwarded —
// the worker owns the authoritative validation error.
func (rt *Router) handleTopologyUpload(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readUploadBody(r)
	if err != nil {
		return err
	}
	key := "upload\x1f"
	if k, err := serve.TopologyUploadKey(body); err == nil {
		key = k
	}
	res, err := rt.fetch(r.Context(), rt.candidates(key), newCall(r, body), false)
	if err != nil {
		return err
	}
	return rt.writeResponse(w, res)
}

// handleTopologyList aggregates the uploaded-topology listings of every
// healthy worker (uploads are sharded, so no single worker has the full
// set), deduplicated by content id.
func (rt *Router) handleTopologyList(w http.ResponseWriter, r *http.Request) error {
	merged := map[string]map[string]any{}
	c := newCall(r, nil)
	answered := false
	var lastErr error
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			continue
		}
		res, err := rt.forwardSpanned(r.Context(), b, c)
		if err != nil {
			lastErr = err
			continue
		}
		if res.status != http.StatusOK {
			lastErr = fmt.Errorf("backend %d answered %d", b.index, res.status)
			continue
		}
		var out struct {
			Topologies []map[string]any `json:"topologies"`
		}
		if err := json.Unmarshal(res.body, &out); err != nil {
			lastErr = err
			continue
		}
		answered = true
		for _, t := range out.Topologies {
			if id, _ := t["topology_id"].(string); id != "" {
				merged[id] = t
			}
		}
	}
	if !answered {
		if lastErr == nil {
			lastErr = errors.New("no healthy backends")
		}
		return errNoBackend(fmt.Sprintf("topology list: %v", lastErr))
	}
	ids := make([]string, 0, len(merged))
	for id := range merged {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	list := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		list = append(list, merged[id])
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(map[string]any{"topologies": list})
}

// handleEnsembleSubmit shards a generation request to the worker
// holding the referenced topology and learns the job route from the
// response.
func (rt *Router) handleEnsembleSubmit(w http.ResponseWriter, r *http.Request) error {
	body, err := rt.readUploadBody(r)
	if err != nil {
		return err
	}
	key := "upload\x1f"
	if k, err := serve.EnsembleSubmitKey(body); err == nil {
		key = k
	}
	return rt.forwardSubmission(w, r, rt.candidates(key), body)
}

// handleHealthz reports the router's own state: per-backend health,
// learned fingerprints, and the batching split of memo misses.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	type backendJSON struct {
		Index     int               `json:"index"`
		Base      string            `json:"base"`
		Healthy   bool              `json:"healthy"`
		Ensembles map[string]string `json:"ensembles"`
	}
	bs := make([]backendJSON, 0, len(rt.backends))
	healthy := 0
	for _, b := range rt.backends {
		h := b.healthy.Load()
		if h {
			healthy++
		}
		bs = append(bs, backendJSON{Index: b.index, Base: b.base, Healthy: h, Ensembles: *b.ensembles.Load()})
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(map[string]any{
		"status":           "ok",
		"uptime_seconds":   time.Since(rt.start).Seconds(),
		"backends":         bs,
		"healthy_backends": healthy,
		"routed_jobs":      rt.jobs.len(),
		"batch": map[string]int64{
			"leaders": rt.memo.leaders.Value(),
			"joined":  rt.memo.joined.Value(),
		},
	})
}

// handleReadyz reports routability: at least one healthy backend.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	for _, b := range rt.backends {
		if b.healthy.Load() {
			w.Header().Set("Content-Type", "application/json")
			return json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
		}
	}
	return errNoBackend("no healthy backends")
}

// handleMetrics serves the router's instruments (memo hits and
// admissions, batching split, retries, hedges, per-backend traffic) in
// Prometheus text exposition.
// With fleet=1 it scrapes every healthy backend and merges the whole
// tier into one exposition (see federate.go).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	if err := serve.CheckParams(r.URL.Query(), "fleet"); err != nil {
		return err
	}
	if boolParam(r.URL.Query().Get("fleet")) {
		return rt.writeFleetMetrics(r.Context(), w)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return obs.Default().WritePrometheus(w)
}
