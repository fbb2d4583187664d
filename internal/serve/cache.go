package serve

import (
	"container/list"
	"context"
	"sync"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// view is one compiled (ensemble, asset universe) pair: the
// deduplicated row view of its bit-packed failure matrix. Views are
// immutable after compilation, so any number of request goroutines
// share one view.
type view struct {
	cm *engine.CompressedMatrix
}

// newView compiles the ensemble's failure flags for the asset universe
// into a bit-packed matrix and deduplicates its rows — the expensive
// step a cache hit skips. ctx carries only the initiating request's
// trace (the compile itself is never canceled): the two phases are
// recorded as child spans, so a cold query's trace shows matrix build
// vs row dedup.
func newView(ctx context.Context, e Ensemble, universe []string, workers int) (*view, error) {
	sp := obs.SpanFromContext(ctx)
	msp := sp.StartChild("compile.matrix")
	m, err := engine.NewFailureMatrix(e, universe)
	msp.End()
	if err != nil {
		return nil, err
	}
	dsp := sp.StartChild("compile.dedup")
	cm := engine.Compress(m, workers)
	dsp.End()
	return &view{cm: cm}, nil
}

// cell evaluates one (configuration, capability) cell against the
// view's distinct flood patterns — the serving hot path: one pass of
// the table kernel, no per-realization work. The tables are the
// server's, so every view shares one attack table per configuration
// shape. cfg was validated when the query was parsed.
func (v *view) cell(tables *engine.Tables, cfg topology.Config, capability threat.Capability) (*stats.Profile, error) {
	counts, err := tables.Counts(v.cm, cfg, capability)
	if err != nil {
		return nil, err
	}
	return counts.Profile(), nil
}

// cacheEntry is one cache slot. ready is closed when the compile
// finishes (view or err set); elem is the entry's LRU position once a
// successful compile is cached.
type cacheEntry struct {
	key   string
	ready chan struct{}
	view  *view
	err   error
	elem  *list.Element
}

// viewCache is the LRU-bounded, coalescing cache of compiled views.
//
// A get for a missing key starts one compile in its own goroutine;
// every concurrent get for the same key — and the initiator itself —
// waits on the entry's ready channel or its own context deadline,
// whichever comes first. A caller that times out abandons the wait
// only: the compile keeps running and its result still lands in the
// cache, so the inevitable retry is a hit. Failed compiles are never
// cached (the entry is removed before ready closes, so a later get
// retries). Only successful, finished entries occupy LRU capacity —
// an in-flight compile cannot be evicted.
//
// The mutex guards only the index and the LRU list; it is never held
// across a compile or a wait.
type viewCache struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of *cacheEntry, front = most recently used

	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
}

// newViewCache builds a cache holding at most capacity compiled views.
// Observability counters resolve against the recorder enabled at
// construction time, matching the package-wide convention.
func newViewCache(capacity int) *viewCache {
	rec := obs.Default()
	return &viewCache{
		capacity:  capacity,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		hits:      rec.Counter("serve.cache_hits"),
		misses:    rec.Counter("serve.cache_misses"),
		coalesced: rec.Counter("serve.cache_coalesced"),
		evictions: rec.Counter("serve.cache_evictions"),
	}
}

// get returns the compiled view for key, compiling it with compile on a
// miss. Concurrent gets for the same key share one compile. The context
// bounds only this caller's wait, never the compile itself; the compile
// does inherit the context's trace, so a cold request's trace shows the
// compile it initiated. Each caller's cache outcome (hit, miss,
// coalesced) is classified onto its request metadata for the access
// log.
func (c *viewCache) get(ctx context.Context, key string, compile func(context.Context) (*view, error)) (*view, error) {
	meta := metaFromContext(ctx)
	waited := false
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{key: key, ready: make(chan struct{})}
			c.entries[key] = e
			c.misses.Inc()
			c.mu.Unlock()
			meta.setCache(cacheMiss)
			// Compile detached from the requesting context's cancelation:
			// if this caller times out, the work still completes and warms
			// the cache. WithoutCancel keeps the trace values.
			go c.fill(context.WithoutCancel(ctx), e, compile)
			select {
			case <-e.ready:
				return e.view, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		select {
		case <-e.ready:
			// Finished entries still in the index always compiled
			// successfully (fill removes failures before closing ready).
			c.lru.MoveToFront(e.elem)
			if !waited {
				c.hits.Inc()
				meta.setCache(cacheHit)
			}
			v := e.view
			c.mu.Unlock()
			return v, nil
		default:
		}
		// Compile in flight: coalesce onto it.
		c.coalesced.Inc()
		c.mu.Unlock()
		meta.setCache(cacheCoalesced)
		waited = true
		select {
		case <-e.ready:
			// Loop: the entry is now either cached (success) or gone
			// (failure — this caller retries the compile itself).
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill runs one compile and publishes the result. ctx carries the
// initiating request's trace (never a deadline): the compile is
// recorded both in the aggregate serve.compile_ns histogram and as a
// "compile" span of that trace.
func (c *viewCache) fill(ctx context.Context, e *cacheEntry, compile func(context.Context) (*view, error)) {
	sp := obs.Default().StartSpan("serve.compile_ns")
	tsp := obs.SpanFromContext(ctx).StartChild("compile")
	v, err := compile(obs.ContextWithSpan(ctx, tsp))
	tsp.End()
	sp.End()
	c.mu.Lock()
	e.view, e.err = v, err
	if err != nil {
		delete(c.entries, e.key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.capacity {
			back := c.lru.Back()
			old := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.entries, old.key)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// len returns the number of cached (successfully compiled) views.
func (c *viewCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// keyedView pairs a cache key with its compiled view for listing and
// export.
type keyedView struct {
	key  string
	view *view
}

// snapshot returns the finished views hottest-first (LRU front to
// back). In-flight compiles are excluded; the snapshot holds the views
// themselves, so it stays valid after later evictions.
func (c *viewCache) snapshot() []keyedView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]keyedView, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, keyedView{key: e.key, view: e.view})
	}
	return out
}

// peek returns the finished view for key without compiling on a miss
// and without promoting the entry — an export must not perturb the
// LRU order it is trying to preserve on the successor.
func (c *viewCache) peek(key string) (*view, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return nil, false
	}
	return e.view, true
}

// put inserts an already-compiled view (a warm-handoff import) unless
// the key is present — finished or compiling — in which case the local
// copy wins and put reports false. Inserted views occupy LRU capacity
// exactly like locally compiled ones.
func (c *viewCache) put(key string, v *view) bool {
	e := &cacheEntry{key: key, ready: make(chan struct{}), view: v}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		return false
	}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.evictions.Inc()
	}
	return true
}
