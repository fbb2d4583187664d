package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compoundthreat/internal/hash64"
	"compoundthreat/internal/obs"
)

// TestBatcherCoalesces runs many concurrent identical misses through
// the memo's in-flight table and checks exactly one fetch executes
// while the rest share its result, with the leaders/joined counters
// matching.
func TestBatcherCoalesces(t *testing.T) {
	m := newMemo(obs.New())
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	results := make([]*response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := m.do(context.Background(), "k", func() (*response, error) {
				calls.Add(1)
				<-gate // hold the leader until all waiters have queued
				return &response{status: 200, body: []byte("ok")}, nil
			}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Wait until every non-leader goroutine has joined the call, then
	// release the leader.
	for m.joined.Value() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	for i, res := range results {
		if res == nil || res.status != 200 || string(res.body) != "ok" {
			t.Fatalf("caller %d got %+v", i, res)
		}
	}
	if l, j := m.leaders.Value(), m.joined.Value(); l != 1 || j != n-1 {
		t.Fatalf("leaders=%d joined=%d, want 1 and %d", l, j, n-1)
	}
}

// TestBatcherDistinctKeysDoNotCoalesce checks two different keys each
// execute.
func TestBatcherDistinctKeysDoNotCoalesce(t *testing.T) {
	m := newMemo(obs.New())
	var calls atomic.Int64
	for _, key := range []string{"a", "b"} {
		if _, err := m.do(context.Background(), key, func() (*response, error) {
			calls.Add(1)
			return &response{status: 200}, nil
		}, nil); err != nil {
			t.Fatalf("key %q: err=%v", key, err)
		}
	}
	if calls.Load() != 2 || m.joined.Value() != 0 {
		t.Fatalf("calls = %d joined = %d, want 2 and 0", calls.Load(), m.joined.Value())
	}
}

// TestBatcherLeaderErrorShared checks waiters receive the leader's
// error, that the error is not stored even for an admissible key, and
// that the key is released for the next fetch.
func TestBatcherLeaderErrorShared(t *testing.T) {
	m := newMemo(obs.New())
	admitAll := func(*response) bool { return true }
	boom := errors.New("boom")
	for i := 0; i < 2; i++ { // a stored error would make the second call a hit
		if _, err := m.do(context.Background(), "k", func() (*response, error) { return nil, boom }, admitAll); !errors.Is(err, boom) {
			t.Fatalf("leader err %d = %v, want boom", i, err)
		}
	}
	// The failed calls must not wedge the key.
	res, err := m.do(context.Background(), "k", func() (*response, error) {
		return &response{status: 200}, nil
	}, admitAll)
	if err != nil || res.status != 200 {
		t.Fatalf("post-failure call: res=%+v err=%v", res, err)
	}
	if l, h, a := m.leaders.Value(), m.hits.Value(), m.admits.Value(); l != 3 || h != 0 || a != 0 {
		t.Fatalf("leaders=%d hits=%d admits=%d, want 3, 0, 0", l, h, a)
	}
}

// TestBatcherWaiterContext checks a waiter with an expired context
// fails its own call without waiting for the leader.
func TestBatcherWaiterContext(t *testing.T) {
	m := newMemo(obs.New())
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		m.do(context.Background(), "k", func() (*response, error) {
			<-gate
			return &response{status: 200}, nil
		}, nil)
	}()
	for m.leaders.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.do(ctx, "k", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
}

// TestMemoConcurrentHitsAndStores reads a few keys from many goroutines
// at once, so hits, joins, admissions and fetches interleave; run it
// under -race. Every caller must get its own key's answer, and every
// call must be counted exactly once as a hit, a join or a fetch.
func TestMemoConcurrentHitsAndStores(t *testing.T) {
	m := newMemo(obs.New())
	admitAll := func(*response) bool { return true }
	keys := []string{"a", "b", "c", "d"}
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := keys[(g+i)%len(keys)]
				res, err := m.do(context.Background(), key, func() (*response, error) {
					return &response{status: 200, body: []byte(key)}, nil
				}, admitAll)
				if err != nil || string(res.body) != key {
					t.Errorf("key %s: res=%+v err=%v", key, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.hits.Value() + m.joined.Value() + m.leaders.Value(); got != goroutines*rounds {
		t.Fatalf("hits+joined+leaders = %d, want %d", got, goroutines*rounds)
	}
	if a := m.admits.Value(); a != int64(len(keys)) {
		t.Fatalf("admits = %d, want one per key (%d)", a, len(keys))
	}
}

// TestMemoDoorkeeperSharedSlot checks two keys whose first doorkeeper
// slots coincide, sighted alternately, are both recognised on their
// second sighting instead of evicting each other.
func TestMemoDoorkeeperSharedSlot(t *testing.T) {
	slots := func(key string) (uint64, uint64) {
		h := hash64.Mix(hash64.String(key)) | 1
		return h & (memoDoorSize - 1), h >> 32 & (memoDoorSize - 1)
	}
	byFirst := make(map[uint64]string)
	var a, b string
	for i := 0; a == ""; i++ {
		key := fmt.Sprintf("k%d", i)
		first, second := slots(key)
		if other, ok := byFirst[first]; ok && first != second {
			a, b = other, key
		}
		byFirst[first] = key
	}
	m := newMemo(obs.New())
	for i, want := range []bool{false, false, true, true} {
		key := []string{a, b}[i%2]
		if got := m.secondSight(key); got != want {
			t.Fatalf("sighting %d of %q: second sight = %v, want %v", i/2+1, key, got, want)
		}
	}
}

// sweepsTotal is the number of sweeps that reached any of the workers.
func sweepsTotal(ws []*fakeWorker) int64 {
	var n int64
	for _, f := range ws {
		n += f.sweeps.Load()
	}
	return n
}

// readN sends the same sweep n times and returns the last response.
func readN(t *testing.T, rt *Router, url string, n int) (code int, body, backend string) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := do(t, rt, http.MethodGet, url, "")
		code, body, backend = w.Code, w.Body.String(), w.Header().Get("X-Shard-Backend")
	}
	return code, body, backend
}

// TestMemoAdmission drives the router's memo through fake workers: what
// it answers without a backend call, and what it refuses to store.
func TestMemoAdmission(t *testing.T) {
	const url = "/v1/sweep?scenario=both"
	cases := []struct {
		name    string
		workers int
		run     func(t *testing.T, rt *Router, ws []*fakeWorker)
	}{{
		name:    "hit makes no backend call",
		workers: 1,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			readN(t, rt, url, 2) // first and second sight
			before := sweepsTotal(ws)
			code, body, backend := readN(t, rt, url, 5)
			if code != http.StatusOK || !strings.Contains(body, `"worker":0`) || backend != "0" {
				t.Fatalf("hit: %d %q from backend %q", code, body, backend)
			}
			if got := sweepsTotal(ws) - before; got != 0 {
				t.Fatalf("%d hits reached a worker", got)
			}
			if h, a, l := rt.memo.hits.Value(), rt.memo.admits.Value(), rt.memo.leaders.Value(); h != 5 || a != 1 || l != 2 {
				t.Fatalf("hits=%d admits=%d leaders=%d, want 5, 1, 2", h, a, l)
			}
			if rt.memo.size.Value() <= 0 {
				t.Fatal("memo_bytes gauge did not move")
			}
		},
	}, {
		name:    "first sight is not stored",
		workers: 1,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			readN(t, rt, "/v1/sweep", 1)
			if a := rt.memo.admits.Value(); a != 0 {
				t.Fatalf("admits = %d after one sighting, want 0", a)
			}
			// Reads that never repeat are never stored.
			for _, u := range viewSweeps {
				readN(t, rt, u, 1)
			}
			if a, b := rt.memo.admits.Value(), rt.memo.size.Value(); a != 0 || b != 0 {
				t.Fatalf("admits=%d bytes=%d after distinct reads, want 0, 0", a, b)
			}
		},
	}, {
		name:    "non-200 answer is not stored",
		workers: 1,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			ws[0].reject.Store(http.StatusNotFound)
			if code, _, _ := readN(t, rt, url, 4); code != http.StatusNotFound {
				t.Fatalf("rejected sweep: %d, want 404", code)
			}
			if got := sweepsTotal(ws); got != 4 {
				t.Fatalf("worker saw %d of 4 rejected sweeps", got)
			}
			if h, a := rt.memo.hits.Value(), rt.memo.admits.Value(); h != 0 || a != 0 {
				t.Fatalf("hits=%d admits=%d, want 0, 0", h, a)
			}
		},
	}, {
		name:    "failover to another fingerprint is not stored",
		workers: 2,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			// Backend 0 names the content; backend 1 holds other content
			// under the same name and is only a failover candidate.
			ws[1].setFingerprint("00000000deadbeef")
			awaitFingerprint(t, rt, 1, "00000000deadbeef")
			ws[0].fail.Store(true)
			code, body, backend := readN(t, rt, url, 4)
			if code != http.StatusOK || backend != "1" || !strings.Contains(body, "deadbeef") {
				t.Fatalf("failover: %d %q from backend %q", code, body, backend)
			}
			if got := ws[1].sweeps.Load(); got != 4 {
				t.Fatalf("failover backend served %d of 4 sweeps", got)
			}
			if h, a := rt.memo.hits.Value(), rt.memo.admits.Value(); h != 0 || a != 0 {
				t.Fatalf("hits=%d admits=%d, want 0, 0", h, a)
			}
		},
	}, {
		name:    "byte bound evicts in LRU order",
		workers: 1,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			// Three answers of equal size under a bound that holds two.
			const a, b, c = "/v1/sweep?scenario=hurricane", "/v1/sweep?scenario=intrusion", "/v1/sweep?scenario=isolation"
			readN(t, rt, a, 2)
			rt.memo.mu.Lock()
			rt.memo.maxBytes = 2 * rt.memo.bytes
			rt.memo.mu.Unlock()
			readN(t, rt, b, 2)
			readN(t, rt, a, 1) // a is now the most recently used
			readN(t, rt, c, 2) // evicts b, the least recently used
			if e := rt.memo.evictions.Value(); e != 1 {
				t.Fatalf("evictions = %d, want 1", e)
			}
			before := sweepsTotal(ws)
			readN(t, rt, a, 1)
			readN(t, rt, c, 1)
			if got := sweepsTotal(ws) - before; got != 0 {
				t.Fatalf("stored answers reached a worker %d times", got)
			}
			readN(t, rt, b, 1)
			if got := sweepsTotal(ws) - before; got != 1 {
				t.Fatalf("evicted answer reached a worker %d times, want 1", got)
			}
			if rt.memo.bytes > rt.memo.maxBytes {
				t.Fatalf("memo holds %d bytes over its %d bound", rt.memo.bytes, rt.memo.maxBytes)
			}
		},
	}, {
		name:    "new content is served after a probe",
		workers: 1,
		run: func(t *testing.T, rt *Router, ws []*fakeWorker) {
			if _, body, _ := readN(t, rt, url, 3); !strings.Contains(body, "cafef00d") {
				t.Fatalf("old content: %q", body)
			}
			if h := rt.memo.hits.Value(); h != 1 {
				t.Fatalf("hits = %d before the change, want 1", h)
			}
			ws[0].setFingerprint("00000000deadbeef")
			awaitFingerprint(t, rt, 0, "00000000deadbeef")
			before := sweepsTotal(ws)
			if code, body, _ := readN(t, rt, url, 1); code != http.StatusOK || !strings.Contains(body, "deadbeef") {
				t.Fatalf("after the probe: %d %q, want the new content", code, body)
			}
			if got := sweepsTotal(ws) - before; got != 1 {
				t.Fatalf("read after the probe reached a worker %d times, want 1", got)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]*fakeWorker, tc.workers)
			for i := range ws {
				ws[i] = newFakeWorker(t, i)
			}
			tc.run(t, newTestRouter(t, Options{}, ws...), ws)
		})
	}
}

// awaitFingerprint waits until the router's probe has learned that
// backend i holds fp under "hurricane".
func awaitFingerprint(t *testing.T, rt *Router, i int, fp string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := rt.backends[i].fingerprint("hurricane"); got == fp {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %d still not advertising %s after 5s", i, fp)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
