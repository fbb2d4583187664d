package shard

import (
	"container/list"
	"context"
	"sync"

	"compoundthreat/internal/hash64"
	"compoundthreat/internal/obs"
)

// The memo's bounds are constants, not options: they size a cache of a
// fixed question set (the paper's figures, Table I scenarios, placement
// rankings), whose answers are tens of kilobytes each.
const (
	// memoMaxBytes bounds the stored answers, keys and bookkeeping.
	memoMaxBytes = 4 << 20
	// memoDoorSize is the number of key hashes the doorkeeper remembers
	// (a power of two, so hash bits pick a slot).
	memoDoorSize = 4096
	// memoEntryOverhead approximates one entry's fixed cost: its map
	// slot, list element and response struct.
	memoEntryOverhead = 160
)

// response is one buffered backend response: everything a waiter or a
// memo hit needs to replay the answer byte-for-byte.
type response struct {
	status      int
	contentType string
	header      map[string]string // extra headers worth forwarding (codec version)
	body        []byte
	backend     int // index of the backend that answered, for the X-Shard-Backend header
}

// memoCall is one in-flight fetch that concurrent identical reads
// share. The leader closes done after storing res/err; waiters only
// ever read after done.
type memoCall struct {
	done chan struct{}
	res  *response
	err  error
	// traceID is the leader's trace ID, set before the call is published
	// so joined waiters can cross-link their traces to the one that
	// actually carries the backend spans.
	traceID string
}

// memoEntry is one stored answer on the LRU list.
type memoEntry struct {
	key  string
	res  *response
	size int64
}

// memo answers repeated reads at the router. Behind one mutex it holds
// an LRU of finished answers bounded by memoMaxBytes, the table of
// in-flight fetches that concurrent identical misses share, and a
// doorkeeper of recently seen key hashes.
//
// The key must capture the full response identity: the resolved
// ensemble fingerprint plus the parsed query's response key, which
// holds the method and every field the answer depends on (see the
// Key methods of serve.SweepQuery and its siblings). A fingerprint is a content address, so a stored
// answer can never be served for different content once the router has
// learned the new fingerprint; until the next health probe it may be,
// exactly as routing itself still uses the old fingerprint.
//
// An answer is stored only on its key's second sighting, so a stream of
// reads that never repeat (a cold sweep over thousands of universes)
// leaves the memo empty instead of churning it.
type memo struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // value: *memoEntry
	lru      list.List                // front = most recently used
	bytes    int64
	maxBytes int64
	calls    map[string]*memoCall
	door     [memoDoorSize]uint64

	leaders   *obs.Counter
	joined    *obs.Counter
	hits      *obs.Counter
	admits    *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

func newMemo(rec *obs.Recorder) *memo {
	return &memo{
		entries:   make(map[string]*list.Element),
		maxBytes:  memoMaxBytes,
		calls:     make(map[string]*memoCall),
		leaders:   rec.Counter("shard.batch_leaders"),
		joined:    rec.Counter("shard.batch_joined"),
		hits:      rec.Counter("shard.memo_hits"),
		admits:    rec.Counter("shard.memo_admits"),
		evictions: rec.Counter("shard.memo_evictions"),
		size:      rec.Gauge("shard.memo_bytes"),
	}
}

// do answers one read. A stored answer for key returns at once (a hit).
// Otherwise the first caller for key becomes the leader and runs fetch;
// callers arriving while it is in flight wait and share its result
// (joined). A waiter whose context expires first returns its own
// context error, and the leader's fetch continues for the rest.
//
// When admit is non-nil, a 200 answer that admit approves is stored on
// the key's second sighting. Errors and non-200 answers are shared with
// waiters but never stored.
func (m *memo) do(ctx context.Context, key string, fetch func() (*response, error), admit func(*response) bool) (*response, error) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		m.hits.Inc()
		obs.SpanFromContext(ctx).Annotate("hit", "true")
		return el.Value.(*memoEntry).res, nil
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		m.joined.Inc()
		// A joined waiter's own trace has no backend spans — annotate it
		// with the leader's trace ID so the two traces stay navigable.
		if sp := obs.SpanFromContext(ctx); sp != nil {
			sp.Annotate("joined", "true")
			if c.traceID != "" {
				sp.Annotate("leader_trace_id", c.traceID)
			}
		}
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &memoCall{done: make(chan struct{}), traceID: obs.TraceFromContext(ctx).ID()}
	m.calls[key] = c
	m.mu.Unlock()
	m.leaders.Inc()

	c.res, c.err = fetch()
	storable := c.err == nil && c.res.status == 200 && admit != nil && admit(c.res)
	m.mu.Lock()
	delete(m.calls, key)
	if storable && m.secondSight(key) {
		m.store(key, c.res)
	}
	m.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// secondSight records a sighting of key in the doorkeeper and reports
// whether the key was already there. Each key has two candidate slots,
// picked by the two halves of its hash, and a slot holds a full hash,
// so keys never admit each other. A sighting fills the first slot if it
// is empty and otherwise overwrites the second, so two keys that share
// one slot still both land, and a full doorkeeper forgets old keys. The
// hash is deterministic, so which keys collide does not change from run
// to run. Callers hold mu.
func (m *memo) secondSight(key string) bool {
	h := hash64.Mix(hash64.String(key)) | 1 // never the empty slot's zero
	first, second := &m.door[h&(memoDoorSize-1)], &m.door[h>>32&(memoDoorSize-1)]
	switch {
	case *first == h || *second == h:
		return true
	case *first == 0:
		*first = h
	default:
		*second = h
	}
	return false
}

// store adds an answer, evicting least recently used entries until the
// byte bound holds. An answer larger than the whole bound is not
// stored. The key is never already present: a leader runs only on a
// miss and stores in the same critical section that retires its call.
// Callers hold mu.
func (m *memo) store(key string, res *response) {
	size := int64(memoEntryOverhead + len(key) + len(res.contentType) + len(res.body))
	for k, v := range res.header {
		size += int64(len(k) + len(v))
	}
	if size > m.maxBytes {
		return
	}
	for m.bytes+size > m.maxBytes {
		el := m.lru.Back()
		e := m.lru.Remove(el).(*memoEntry)
		delete(m.entries, e.key)
		m.bytes -= e.size
		m.evictions.Inc()
	}
	m.entries[key] = m.lru.PushFront(&memoEntry{key: key, res: res, size: size})
	m.bytes += size
	m.admits.Inc()
	m.size.Set(m.bytes)
}
