package shard

// Multi-process cluster tests: the test binary re-executes itself as
// real threatserver-equivalent worker processes (via internal/cmdtest),
// the router runs in-process on top of them, and a single-process
// reference server built from the same seeded ensemble provides the
// ground truth every routed response must match byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/cmdtest"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
	"compoundthreat/internal/store"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
)

func TestMain(m *testing.M) {
	cmdtest.MaybeRunMain(workerMain)
	code := m.Run()
	if benchShared != nil {
		benchShared.stopAll()
	}
	os.Exit(code)
}

// testEnsemble generates the deterministic Oahu hurricane ensemble the
// cluster shares: same seed in every worker process and the reference
// server, so fingerprints — and therefore responses — are identical.
func testEnsemble(realizations int, seed int64) (serve.Ensemble, *assets.Inventory, error) {
	inv := assets.Oahu()
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), inv)
	if err != nil {
		return nil, nil, err
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	cfg.Seed = seed
	ens, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return ens, inv, nil
}

// workerMain is the re-executed worker process: a serve.Server over
// the seeded test ensemble, listening on an ephemeral port it reports
// on stderr, draining on SIGTERM like the real threatserver.
func workerMain() {
	if err := runWorker(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("shardworker", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	realizations := fs.Int("realizations", 48, "disaster realizations")
	seed := fs.Int64("seed", 7, "ensemble seed")
	storeDir := fs.String("store", "", "persist uploaded scenarios under this directory")
	traceBuffer := fs.Int("trace-buffer", 0, "completed traces retained per ring (0 = tracing off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec := obs.New()
	obs.Enable(rec)
	defer obs.Enable(nil)
	if *traceBuffer > 0 {
		obs.EnableTracing(obs.NewTracer(*traceBuffer, 0))
		defer obs.EnableTracing(nil)
	}
	ens, inv, err := testEnsemble(*realizations, *seed)
	if err != nil {
		return err
	}
	var st *store.Store
	if *storeDir != "" {
		var cleaned int
		if st, cleaned, err = store.Open(*storeDir, store.Options{}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "store cleaned %d\n", cleaned)
	}
	s, err := serve.New(map[string]serve.Ensemble{"hurricane": ens}, inv, serve.Options{Store: st})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serve.Run(ctx, ln, s.Handler(), 10*time.Second, os.Stderr)
	s.Close()
	return err
}

// workerProc is one live worker process.
type workerProc struct {
	cmd     *exec.Cmd
	addr    string
	done    chan struct{}
	waitErr error
}

// startWorker re-executes the test binary as a worker and waits for
// its listen address; extra flags (e.g. -store DIR) pass through.
func startWorker(tb testing.TB, realizations int, extra ...string) *workerProc {
	tb.Helper()
	cmd := cmdtest.Command(tb, append([]string{"-realizations", fmt.Sprint(realizations)}, extra...)...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		tb.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	addrLine := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrLine <- a
			}
		}
	}()
	w := &workerProc{cmd: cmd, done: make(chan struct{})}
	go func() { w.waitErr = cmd.Wait(); close(w.done) }()
	select {
	case w.addr = <-addrLine:
	case <-w.done:
		tb.Fatalf("worker exited before listening: %v", w.waitErr)
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		tb.Fatal("worker never reported its listen address")
	}
	return w
}

// stop terminates the worker, gracefully first.
func (w *workerProc) stop() {
	select {
	case <-w.done:
		return
	default:
	}
	w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		w.cmd.Process.Kill()
		<-w.done
	}
}

// kill SIGKILLs the worker — the mid-load failure injection.
func (w *workerProc) kill() {
	w.cmd.Process.Kill()
	<-w.done
}

// cluster is a router over real worker processes.
type cluster struct {
	workers []*workerProc
	rt      *Router
}

// startCluster boots n worker processes and an in-process router over
// them, waiting until the router sees every worker healthy. Extra
// worker flags (e.g. -trace-buffer 64) pass through to every worker.
// The caller owns shutdown via stopAll (tests register it as a cleanup;
// the shared benchmark cluster defers it to TestMain).
func startCluster(tb testing.TB, n, realizations int, opt Options, extra ...string) *cluster {
	tb.Helper()
	c := &cluster{}
	for i := 0; i < n; i++ {
		c.workers = append(c.workers, startWorker(tb, realizations, extra...))
	}
	for _, w := range c.workers {
		opt.Backends = append(opt.Backends, "http://"+w.addr)
	}
	if opt.HealthInterval == 0 {
		opt.HealthInterval = 100 * time.Millisecond
	}
	rt, err := New(opt)
	if err != nil {
		c.stopAll()
		tb.Fatal(err)
	}
	c.rt = rt
	deadline := time.Now().Add(60 * time.Second)
	for {
		healthy := 0
		for _, b := range rt.backends {
			if b.healthy.Load() {
				healthy++
			}
		}
		if healthy == n {
			return c
		}
		if time.Now().After(deadline) {
			c.stopAll()
			tb.Fatalf("only %d/%d workers healthy after 60s", healthy, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *cluster) stopAll() {
	if c.rt != nil {
		c.rt.Close()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

// referenceServer builds the single-process ground truth over the
// identical ensemble.
func referenceServer(tb testing.TB, realizations int) *serve.Server {
	tb.Helper()
	ens, inv, err := testEnsemble(realizations, 7)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := serve.New(map[string]serve.Ensemble{"hurricane": ens}, inv, serve.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// enableObs installs a fresh recorder for the test (router and
// reference server resolve instruments from the global default).
func enableObs(tb testing.TB) *obs.Recorder {
	rec := obs.New()
	obs.Enable(rec)
	tb.Cleanup(func() { obs.Enable(nil) })
	return rec
}

// roundTrip runs one request against a handler and returns status,
// body, and the backend tag.
func roundTrip(h http.Handler, method, url, body string) (int, []byte, string) {
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, url, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), w.Header().Get("X-Shard-Backend")
}

// identityQueries is the read surface the bit-identity test sweeps and
// the benchmarks warm: distinct universes so the keys spread across the
// ring.
var identityQueries = []struct {
	method, url, body string
}{
	{http.MethodGet, "/v1/sweep", ""},
	{http.MethodGet, "/v1/sweep?scenario=both", ""},
	{http.MethodGet, "/v1/sweep?scenario=intrusion", ""},
	{http.MethodPost, "/v1/sweep", `{"scenario":"isolation"}`},
	{http.MethodGet, "/v1/figure/9", ""},
	{http.MethodGet, "/v1/figure/6", ""},
	{http.MethodGet, "/v1/placement?primary=honolulu-cc&scenario=intrusion&limit=3", ""},
	{http.MethodGet, "/v1/placement?primary=honolulu-cc&scenario=both", ""},
}

// TestShardedBitIdentity routes the full read surface through a
// two-worker cluster and checks every response is byte-identical to
// the single-process reference server, including an async placement
// search polled to completion on both sides. The battery runs three
// times: the first pass sights each read, the second stores it in the
// router's memo, and the third must be answered from the memo alone,
// byte-identical and tagged with the worker that produced it.
func TestShardedBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests in -short mode")
	}
	enableObs(t)
	const realizations = 48
	c := startCluster(t, 2, realizations, Options{})
	t.Cleanup(c.stopAll)
	ref := referenceServer(t, realizations)

	owner := make([]string, len(identityQueries))
	for pass := 1; pass <= 3; pass++ {
		hits := c.rt.memo.hits.Value()
		for i, q := range identityQueries {
			wantCode, want, _ := roundTrip(ref.Handler(), q.method, q.url, q.body)
			gotCode, got, backend := roundTrip(c.rt.Handler(), q.method, q.url, q.body)
			if wantCode != http.StatusOK {
				t.Fatalf("reference %s %s = %d: %s", q.method, q.url, wantCode, want)
			}
			if gotCode != wantCode {
				t.Fatalf("pass %d: %s %s: router %d, reference %d: %s", pass, q.method, q.url, gotCode, wantCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pass %d: %s %s differs (worker %s):\n got: %s\nwant: %s", pass, q.method, q.url, backend, got, want)
			}
			if pass == 1 {
				owner[i] = backend
			} else if backend != owner[i] {
				t.Fatalf("pass %d: %s %s tagged backend %s, first pass %s", pass, q.method, q.url, backend, owner[i])
			}
		}
		if pass == 3 {
			if got := c.rt.memo.hits.Value() - hits; got != int64(len(identityQueries)) {
				t.Fatalf("third pass: %d memo hits, want all %d reads", got, len(identityQueries))
			}
		}
	}

	// The async search: identical submission on both sides, identical
	// terminal poll response (modulo the wall-clock age field).
	search := `{"k":2,"scenario":"both"}`
	refCode, refSub, _ := roundTrip(ref.Handler(), http.MethodPost, "/v1/placement/search", search)
	gotCode, gotSub, _ := roundTrip(c.rt.Handler(), http.MethodPost, "/v1/placement/search", search)
	if refCode != http.StatusAccepted || gotCode != http.StatusAccepted {
		t.Fatalf("search submits: router %d (%s), reference %d (%s)", gotCode, gotSub, refCode, refSub)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(gotSub, &sub); err != nil {
		t.Fatal(err)
	}
	poll := func(h http.Handler) map[string]any {
		deadline := time.Now().Add(60 * time.Second)
		for {
			code, body, _ := roundTrip(h, http.MethodGet, "/v1/placement/jobs/"+sub.JobID, "")
			if code != http.StatusOK {
				t.Fatalf("poll %s: %d: %s", sub.JobID, code, body)
			}
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			if m["status"] == "done" {
				delete(m, "age_seconds")
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %v after 60s", sub.JobID, m["status"])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	want, _ := json.Marshal(poll(ref.Handler()))
	got, _ := json.Marshal(poll(c.rt.Handler()))
	if !bytes.Equal(got, want) {
		t.Fatalf("job %s result differs:\n got: %s\nwant: %s", sub.JobID, got, want)
	}
}

// TestShardedWorkerKill fires sustained load through a two-worker
// cluster, SIGKILLs one worker mid-load, and checks every response is
// either the bit-identical correct answer (retried onto the survivor)
// or the typed backend_unavailable envelope — never a wrong answer —
// and that the cluster settles back to all-correct service.
func TestShardedWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests in -short mode")
	}
	enableObs(t)
	const realizations = 48
	c := startCluster(t, 2, realizations, Options{HealthInterval: 100 * time.Millisecond})
	t.Cleanup(c.stopAll)
	ref := referenceServer(t, realizations)

	// The load never repeats a read — each placement ranking's limit is
	// its sequence number — so the router's memo answers none of them
	// and every read reaches a worker, which is what the kill has to
	// interrupt. Cycling primaries and scenarios spreads the reads over
	// several views. The reference answers each read as it is made.
	primaries := assets.Oahu().ControlSiteCandidates()
	scenarios := []string{"hurricane", "intrusion", "isolation", "both"}
	var seq atomic.Int64
	next := func() string {
		i := int(seq.Add(1))
		return fmt.Sprintf("/v1/placement?primary=%s&scenario=%s&limit=%d",
			primaries[i%len(primaries)].ID, scenarios[i/len(primaries)%len(scenarios)], i)
	}

	// Load loop: every goroutine issues fresh reads until told to stop,
	// classifying each response.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok       int
		shed     int
		wrong    []string
		sawAfter int // correct answers observed after the kill
		killed   bool
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				url := next()
				code, body, _ := roundTrip(c.rt.Handler(), http.MethodGet, url, "")
				wantCode, want, _ := roundTrip(ref.Handler(), http.MethodGet, url, "")
				if wantCode != http.StatusOK {
					t.Errorf("reference %s = %d", url, wantCode)
				}
				mu.Lock()
				switch {
				case code == http.StatusOK && bytes.Equal(body, want):
					ok++
					if killed {
						sawAfter++
					}
				case code == http.StatusServiceUnavailable && bytes.Contains(body, []byte("backend_unavailable")):
					shed++
				default:
					if len(wrong) < 5 {
						wrong = append(wrong, fmt.Sprintf("GET %s → %d: %.200s", url, code, body))
					}
				}
				mu.Unlock()
			}
		}()
	}

	// Let the load warm both shards, then kill one worker mid-flight.
	time.Sleep(500 * time.Millisecond)
	mu.Lock()
	killed = true
	mu.Unlock()
	c.workers[0].kill()

	// Keep loading until the survivor has proven it serves the full
	// battery correctly post-kill.
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		settled := sawAfter > 4*len(identityQueries)
		mu.Unlock()
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if len(wrong) > 0 {
		t.Fatalf("responses that were neither correct nor typed shed errors:\n%s", strings.Join(wrong, "\n"))
	}
	if ok == 0 {
		t.Fatal("no successful responses at all")
	}
	if sawAfter <= 4*len(identityQueries) {
		t.Fatalf("survivor never settled: %d correct answers after kill (ok=%d shed=%d)", sawAfter, ok, shed)
	}
	if c.rt.retries.Value() == 0 {
		t.Fatal("retries counter did not move across the kill")
	}
	t.Logf("load summary: ok=%d shed=%d retries=%d after-kill=%d", ok, shed, c.rt.retries.Value(), sawAfter)
}

// ---- multi-process load benchmarks (BENCH_7.json) ----

// benchShared is the cluster the benchmarks amortize: two real worker
// processes plus the in-process router, started on first use and torn
// down in TestMain.
var benchShared *cluster

// benchRealizations keeps worker startup short enough for CI smoke
// runs while giving the sweep a non-trivial evaluation cost.
const benchRealizations = 100

func benchCluster(b *testing.B) *cluster {
	b.Helper()
	if benchShared == nil {
		obs.Enable(obs.New())
		benchShared = startCluster(b, 2, benchRealizations, Options{})
		// Warm every shard so the benchmarks measure cached serving, as
		// the single-process serve benchmarks do.
		for _, q := range identityQueries {
			code, body, _ := roundTrip(benchShared.rt.Handler(), q.method, q.url, q.body)
			if code != http.StatusOK {
				b.Fatalf("warmup %s %s: %d: %s", q.method, q.url, code, body)
			}
		}
	}
	return benchShared
}

// BenchmarkShardedSweepRouter measures a warm repeat through the
// router: handler, shard-key derivation and a memo hit replayed to the
// client. It repeats one query, so after the warm-up every iteration is
// answered by the router's memo with no call to a worker; the routed
// miss path (HTTP to the owning worker, cached view evaluation) is not
// in this number.
func BenchmarkShardedSweepRouter(b *testing.B) {
	c := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, body, _ := roundTrip(c.rt.Handler(), http.MethodGet, "/v1/sweep?scenario=both", "")
		if code != http.StatusOK {
			b.Fatalf("sweep: %d: %s", code, body)
		}
	}
}

// BenchmarkShardedSweepDirect is the same cached sweep sent straight
// to the owning worker process over loopback HTTP. Against
// BenchmarkShardedSweepRouter, which the memo answers, the delta is the
// worker hop a memo hit saves, not the router's overhead on a miss.
func BenchmarkShardedSweepDirect(b *testing.B) {
	c := benchCluster(b)
	_, _, backend := roundTrip(c.rt.Handler(), http.MethodGet, "/v1/sweep?scenario=both", "")
	var base string
	for i, w := range c.workers {
		if fmt.Sprint(i) == backend {
			base = "http://" + w.addr
		}
	}
	if base == "" {
		b.Fatalf("could not resolve owning worker from backend tag %q", backend)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(base + "/v1/sweep?scenario=both")
		if err != nil {
			b.Fatal(err)
		}
		// Drain before Close so the keep-alive connection is reused —
		// the router's backend client reads full bodies too.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep: %d", resp.StatusCode)
		}
	}
}

// BenchmarkShardedSweepParallel runs identical concurrent sweeps
// through the router, exercising the memo's lock under contention
// (every iteration after the warm-up is a hit).
func BenchmarkShardedSweepParallel(b *testing.B) {
	c := benchCluster(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			code, body, _ := roundTrip(c.rt.Handler(), http.MethodGet, "/v1/sweep?scenario=both", "")
			if code != http.StatusOK {
				b.Fatalf("sweep: %d: %s", code, body)
			}
		}
	})
}

// missSweeps lists distinct sweep URLs over one compiled view: every
// ordered config list containing 6+6+6 (whose asset universe is always
// the default placement's) except the standard five in standard order
// (the default list, which the memo-hit benchmarks send), under every
// scenario, with the ensemble
// either left to its default or named. No two share a memo key, so
// each is a router miss until it has been sent twice. A default spelled
// out is the same read as the default omitted, so the placement
// parameters cannot tell URLs apart; they rotate through every
// spelled/omitted combination instead, so the parse still sees each.
func missSweeps() []string {
	var lists [][]string
	var extend func(list []string, used map[string]bool)
	extend = func(list []string, used map[string]bool) {
		if used["6+6+6"] && !slices.Equal(list, []string{"2", "2-2", "6", "6-6", "6+6+6"}) {
			lists = append(lists, append([]string(nil), list...))
		}
		for _, cfg := range []string{"2", "2-2", "6", "6-6", "6+6+6"} {
			if !used[cfg] {
				used[cfg] = true
				extend(append(list, cfg), used)
				used[cfg] = false
			}
		}
	}
	extend(nil, map[string]bool{})
	placement := []struct{ key, value string }{
		{"primary", "honolulu-cc"}, {"second", "waiau-plant"}, {"data_center", "drfortress-dc"},
	}
	var urls []string
	for _, list := range lists {
		for _, scenario := range []string{"hurricane", "intrusion", "isolation", "both"} {
			for _, ensemble := range []string{"", "hurricane"} {
				q := url.Values{"config": list, "scenario": {scenario}}
				if ensemble != "" {
					q.Set("ensemble", ensemble)
				}
				mask := len(urls) / 2 % (1 << len(placement))
				for i, p := range placement {
					if mask&(1<<i) != 0 {
						q.Set(p.key, p.value)
					}
				}
				urls = append(urls, "/v1/sweep?"+q.Encode())
			}
		}
	}
	return urls
}

// missURLs and missNext persist across the benchmark's b.N rounds, so
// no round resends a URL an earlier round already sent.
var (
	missURLs []string
	missNext int
)

// forgetSightings clears the memo's doorkeeper, so every URL is a
// first sighting again and the next pass over missURLs stores nothing.
func forgetSightings(m *memo) {
	m.mu.Lock()
	m.door = [memoDoorSize]uint64{}
	m.mu.Unlock()
}

// BenchmarkShardedSweepRouterMiss measures the routed miss path: a
// sweep the router's memo cannot answer, forwarded to the owning worker
// and evaluated there over a warm compiled view. Every iteration sends
// a sweep the memo has not sighted, all over the one view the cluster
// warm-up compiles: the 2,080 URLs are sent in turn, and before each
// pass over them the memo forgets its sightings, so none is ever
// stored. Allocations are the router process's (plus the httptest
// request and recorder), not the worker's.
func BenchmarkShardedSweepRouterMiss(b *testing.B) {
	c := benchCluster(b)
	if missURLs == nil {
		missURLs = missSweeps()
	}
	hits := c.rt.memo.hits.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if missNext%len(missURLs) == 0 {
			b.StopTimer()
			forgetSightings(c.rt.memo)
			b.StartTimer()
		}
		u := missURLs[missNext%len(missURLs)]
		missNext++
		code, body, _ := roundTrip(c.rt.Handler(), http.MethodGet, u, "")
		if code != http.StatusOK {
			b.Fatalf("sweep %s: %d: %s", u, code, body)
		}
	}
	b.StopTimer()
	if got := c.rt.memo.hits.Value() - hits; got != 0 {
		b.Fatalf("%d of %d iterations were memo hits; this benchmark must measure misses", got, b.N)
	}
}
