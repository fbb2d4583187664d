package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/hash64"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/store"
)

// Ensemble is what the server serves: a disaster ensemble plus its
// asset list, used for fingerprinting at load time and for validating
// query placements before anything is compiled. hazard.Ensemble and
// seismic.Ensemble both satisfy it. Implementations must be immutable
// after generation (every ensemble in this module is), since handler
// goroutines read them concurrently.
type Ensemble interface {
	analysis.DisasterEnsemble
	// AssetIDs returns the IDs of every asset the ensemble covers.
	AssetIDs() []string
}

// Options tunes the server. The zero value serves with the documented
// defaults.
type Options struct {
	// Workers bounds engine parallelism inside a single query
	// (placement sweeps fan candidate evaluation out over it).
	// 0 = runtime.GOMAXPROCS(0).
	Workers int
	// MaxInflight bounds concurrently evaluating queries; excess
	// requests queue until a slot frees or their deadline expires.
	// 0 = 2 × runtime.NumCPU().
	MaxInflight int
	// CacheEntries bounds the compiled-view LRU cache. 0 = 64.
	CacheEntries int
	// Timeout is the per-request deadline, covering queueing, any
	// compile wait, evaluation, and response encoding. 0 = 10s.
	Timeout time.Duration
	// MaxBodyBytes bounds POST request bodies. 0 = 1 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (see accessEntry). The server serializes writes; the
	// caller owns buffering and flushing. nil = access logging off.
	AccessLog io.Writer
	// JobTimeout is the per-job deadline for async placement searches
	// (queueing for an evaluation slot plus the search itself). 0 = 5m.
	JobTimeout time.Duration
	// JobRetention bounds how many finished placement jobs stay
	// pollable; the oldest are evicted first. 0 = 64.
	JobRetention int
	// MaxImportBytes bounds warm-handoff import bodies (wire-encoded
	// views, finished-job envelopes), which are legitimately larger
	// than query bodies. 0 = 64 MiB.
	MaxImportBytes int64

	// Store, when non-nil, persists uploaded topologies and generated
	// ensembles content-addressed so a restarted server re-serves them
	// warm. nil = uploads are accepted but held in memory only.
	Store *store.Store
	// MaxUploadBytes bounds topology/ensemble-parameter upload bodies.
	// 0 = 4 MiB.
	MaxUploadBytes int64
	// MaxUploadAssets bounds the asset inventory of one uploaded
	// topology. 0 = 256.
	MaxUploadAssets int
	// MaxUploadVertices bounds the coastline of one uploaded topology.
	// 0 = 4096.
	MaxUploadVertices int
	// MaxUploadRealizations bounds one generation request. 0 = 5000.
	MaxUploadRealizations int
	// QuotaObjects bounds stored objects (topologies + ensembles) per
	// client. 0 = 64.
	QuotaObjects int
	// QuotaBytes bounds stored payload bytes per client. 0 = 64 MiB.
	QuotaBytes int64
}

// defaults materializes the documented zero-value defaults.
func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = engine.Workers(0)
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * runtime.NumCPU()
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 5 * time.Minute
	}
	if o.JobRetention <= 0 {
		o.JobRetention = 64
	}
	if o.MaxImportBytes <= 0 {
		o.MaxImportBytes = 64 << 20
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 4 << 20
	}
	if o.MaxUploadAssets <= 0 {
		o.MaxUploadAssets = 256
	}
	if o.MaxUploadVertices <= 0 {
		o.MaxUploadVertices = 4096
	}
	if o.MaxUploadRealizations <= 0 {
		o.MaxUploadRealizations = 5000
	}
	if o.QuotaObjects <= 0 {
		o.QuotaObjects = 64
	}
	if o.QuotaBytes <= 0 {
		o.QuotaBytes = 64 << 20
	}
	return o
}

// ensembleEntry is one loaded ensemble: the data, its content hash
// (half of every cache key), and its asset-ID set for query validation.
type ensembleEntry struct {
	name   string
	e      Ensemble
	hash   uint64
	assets map[string]bool
}

// Server answers compound-threat queries over ensembles loaded at
// construction. It is safe for concurrent use; see the package comment
// for the caching, coalescing, and bounded-work design.
type Server struct {
	opt Options
	inv *assets.Inventory

	// mu guards ensembles and names, which the write path mutates at
	// runtime; read-side paths (query handlers, healthz, view-key
	// resolution) take the read lock. The entries themselves stay
	// immutable once registered.
	mu        sync.RWMutex
	ensembles map[string]*ensembleEntry
	names     []string // sorted ensemble names

	// dflt answers a query that names no ensemble: the only ensemble
	// New was given, or nil when it was given several. It is fixed at
	// New, so no upload, generation job or warm-restart import can
	// change what another client's unnamed query means.
	dflt *ensembleEntry

	cache   *viewCache
	tables  *engine.Tables // attack tables shared by every cached view
	jobs    *registry[*job]
	uploads *uploadState
	genjobs *registry[*genJob]
	slots   chan struct{}
	start   time.Time
	mux     *http.ServeMux

	inflight *obs.Gauge
	errs     *obs.Counter
	timeouts *obs.Counter

	// Warm-handoff instruments and the readiness flag Close flips.
	viewsExported *obs.Counter
	viewsImported *obs.Counter
	handoffViews  *obs.Counter
	jobsImported  *obs.Counter
	closed        atomic.Bool

	// tracer and access are resolved once at New (both may be nil =
	// disabled); reqID numbers requests for X-Request-Id and the log.
	tracer *obs.Tracer
	access *accessLogger
	reqID  atomic.Uint64
}

// New builds a server over the given ensembles and asset inventory.
// Ensemble fingerprints are computed here, once; enable observability
// (obs.Enable) before calling New so the server's instruments record.
func New(ensembles map[string]Ensemble, inv *assets.Inventory, opt Options) (*Server, error) {
	if len(ensembles) == 0 {
		return nil, errors.New("serve: no ensembles")
	}
	if inv == nil {
		return nil, errors.New("serve: nil inventory")
	}
	opt = opt.defaults()
	rec := obs.Default()
	s := &Server{
		opt:       opt,
		inv:       inv,
		ensembles: make(map[string]*ensembleEntry, len(ensembles)),
		cache:     newViewCache(opt.CacheEntries),
		tables:    engine.NewTables(),
		uploads:   newUploadState(opt),
		slots:     make(chan struct{}, opt.MaxInflight),
		start:     time.Now(),
		inflight:  rec.Gauge("serve.inflight"),
		errs:      rec.Counter("serve.errors"),
		timeouts:  rec.Counter("serve.timeouts"),
		tracer:    obs.DefaultTracer(),

		viewsExported: rec.Counter("serve.views_exported"),
		viewsImported: rec.Counter("serve.views_imported"),
		handoffViews:  rec.Counter("serve.handoff_views"),
		jobsImported:  rec.Counter("serve.jobs_imported"),
	}
	s.jobs = newRegistry[*job](opt.JobRetention, jobMetrics{
		submitted: rec.Counter("serve.jobs_submitted"),
		coalesced: rec.Counter("serve.jobs_coalesced"),
		done:      rec.Counter("serve.jobs_done"),
		failed:    rec.Counter("serve.jobs_failed"),
		canceled:  rec.Counter("serve.jobs_canceled"),
		running:   rec.Gauge("serve.jobs_running"),
	})
	s.genjobs = newRegistry[*genJob](opt.JobRetention, jobMetrics{
		submitted: rec.Counter("serve.genjobs_submitted"),
		coalesced: rec.Counter("serve.genjobs_coalesced"),
		done:      rec.Counter("serve.genjobs_done"),
		failed:    rec.Counter("serve.genjobs_failed"),
		canceled:  rec.Counter("serve.genjobs_canceled"),
		running:   rec.Gauge("serve.genjobs_running"),
	})
	if opt.AccessLog != nil {
		s.access = newAccessLogger(opt.AccessLog)
	}
	for name, e := range ensembles {
		if name == "" {
			return nil, errors.New("serve: empty ensemble name")
		}
		if e == nil || e.Size() <= 0 {
			return nil, fmt.Errorf("serve: ensemble %q is nil or empty", name)
		}
		h, err := fingerprint(e)
		if err != nil {
			return nil, fmt.Errorf("serve: fingerprint %q: %w", name, err)
		}
		if err := s.registerEnsemble(name, e, h); err != nil {
			return nil, err
		}
		if len(ensembles) == 1 {
			s.dflt = s.ensembles[name]
		}
	}
	if err := s.loadStore(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// registerEnsemble adds one ensemble under name with the given content
// hash. Re-registering the same (name, hash) is a no-op — warm restart
// and a concurrently committing generation job may race to the same
// content — while a different hash under an existing name is an error.
func (s *Server) registerEnsemble(name string, e Ensemble, hash uint64) error {
	entry := &ensembleEntry{name: name, e: e, hash: hash, assets: make(map[string]bool)}
	for _, id := range e.AssetIDs() {
		entry.assets[id] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.ensembles[name]; ok {
		if prev.hash == hash {
			return nil
		}
		return fmt.Errorf("serve: ensemble %q already loaded with different content", name)
	}
	s.ensembles[name] = entry
	s.names = append(s.names, name)
	sort.Strings(s.names)
	return nil
}

// fingerprint hashes the ensemble's full failure-bit content (FNV-1a
// over every realization's failure vector plus the asset list), so a
// cache key names the exact data it was compiled from.
func fingerprint(e Ensemble) (uint64, error) {
	ids := e.AssetIDs()
	sort.Strings(ids)
	h := hash64.Offset
	for _, id := range ids {
		h = hash64.AddByte(hash64.AddString(h, id), 0)
	}
	var row []bool
	for r := 0; r < e.Size(); r++ {
		var err error
		row, err = appendFailureVector(e, row[:0], r, ids)
		if err != nil {
			return 0, err
		}
		var acc, n byte
		for _, failed := range row {
			acc <<= 1
			if failed {
				acc |= 1
			}
			if n++; n == 8 {
				h = hash64.AddByte(h, acc)
				acc, n = 0, 0
			}
		}
		if n > 0 {
			h = hash64.AddByte(h, acc)
		}
	}
	return h, nil
}

// appendFailureVector prefers the ensemble's allocation-free append
// path when it has one.
func appendFailureVector(e Ensemble, dst []bool, r int, ids []string) ([]bool, error) {
	type vectorAppender interface {
		AppendFailureVector(dst []bool, r int, assetIDs []string) ([]bool, error)
	}
	if ap, ok := e.(vectorAppender); ok {
		return ap.AppendFailureVector(dst, r, ids)
	}
	return e.FailureVector(r, ids)
}

// Handler returns the server's HTTP handler (all /v1/ routes).
func (s *Server) Handler() http.Handler { return s.mux }

// ensemble resolves the ensemble named in a query. An empty name
// resolves to the default ensemble, when New was given exactly one.
func (s *Server) ensemble(name string) (*ensembleEntry, error) {
	if name == "" && s.dflt != nil {
		return s.dflt, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		return nil, badRequestf("ensemble parameter required (loaded: %s)", strings.Join(s.names, ", "))
	}
	e, ok := s.ensembles[name]
	if !ok {
		return nil, notFoundf("unknown ensemble %q (loaded: %s)", name, strings.Join(s.names, ", "))
	}
	return e, nil
}

// ensembleNames returns a snapshot of the loaded names, sorted.
func (s *Server) ensembleNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// viewFor returns the cached compiled view for (ensemble, universe),
// compiling and caching it on a miss. The universe is the deduplicated
// union of the query's site assets in first-occurrence order, so every
// parsed query maps to a deterministic key. The whole lookup — and, on
// a miss, the wait for the compile — is recorded as a "cache" span of
// the request's trace, annotated with this caller's outcome.
func (s *Server) viewFor(ctx context.Context, ens *ensembleEntry, universe []string) (*view, error) {
	key := fmt.Sprintf("%016x|%s", ens.hash, strings.Join(universe, "\x1f"))
	csp := obs.SpanFromContext(ctx).StartChild("cache")
	v, err := s.cache.get(obs.ContextWithSpan(ctx, csp), key, func(cctx context.Context) (*view, error) {
		return newView(cctx, ens.e, universe, s.opt.Workers)
	})
	if m := metaFromContext(ctx); m != nil {
		csp.Annotate("outcome", m.cacheOutcome())
	}
	csp.End()
	return v, err
}

// acquire takes one evaluation slot, waiting until one frees or the
// request deadline expires.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Run serves ln with handler until ctx is canceled, then drains
// gracefully: the listener closes immediately (readiness probes start
// failing), in-flight requests get up to drain to finish, and only
// then are remaining connections forcibly closed. diag, when non-nil,
// receives one line when draining starts. Returns nil on a clean
// drain; ErrDrainTimeout (wrapped) when the drain deadline forced
// connections closed.
func Run(ctx context.Context, ln net.Listener, handler http.Handler, drain time.Duration, diag io.Writer) error {
	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	if diag != nil {
		fmt.Fprintf(diag, "draining (up to %v) ...\n", drain)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-done // always http.ErrServerClosed after Shutdown
	if err != nil {
		srv.Close()
		return fmt.Errorf("serve: %w: %w", ErrDrainTimeout, err)
	}
	return nil
}

// ErrDrainTimeout reports that graceful drain ran out of time and
// in-flight connections were forcibly closed.
var ErrDrainTimeout = errors.New("drain timed out")
