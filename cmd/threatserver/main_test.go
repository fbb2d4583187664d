package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"compoundthreat/internal/cmdtest"
	"compoundthreat/internal/obs"
)

func TestMain(m *testing.M) {
	cmdtest.MaybeRunMain(main)
	os.Exit(m.Run())
}

// TestBadFlagExitsNonZero re-executes main with an undefined flag and
// asserts the process exits non-zero with a usage message.
func TestBadFlagExitsNonZero(t *testing.T) {
	cmdtest.AssertBadFlagExit(t)
}

// server is one re-executed threatserver process under test.
type server struct {
	t      *testing.T
	base   string
	stderr *strings.Builder
	mu     *sync.Mutex
}

// startServer re-executes the test binary as a threatserver on an
// ephemeral port and waits for its "listening on" line.
func startServer(t *testing.T, extra ...string) (*server, func() error) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-realizations", "16"}, extra...)
	cmd := cmdtest.Command(t, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		stderr   strings.Builder
		addrLine = make(chan string, 1)
	)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			fmt.Fprintln(&stderr, line)
			mu.Unlock()
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				addrLine <- a
			}
		}
	}()
	// done closes once the process has exited; waitErr is safe to read
	// after that.
	var waitErr error
	done := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(done) }()

	var addr string
	select {
	case addr = <-addrLine:
	case <-done:
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("server exited before listening: %v\nstderr:\n%s", waitErr, stderr.String())
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never reported its listen address")
	}

	s := &server{t: t, base: "http://" + addr, stderr: &stderr, mu: &mu}
	stop := func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case <-done:
			return waitErr
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("server did not exit after SIGTERM")
		}
	}
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	})
	return s, stop
}

// get fetches a URL from the server and decodes the JSON response.
func (s *server) get(path string) (int, map[string]any) {
	s.t.Helper()
	resp, err := http.Get(s.base + path)
	if err != nil {
		s.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		s.t.Fatalf("GET %s: non-JSON body %q: %v", path, raw, err)
	}
	return resp.StatusCode, body
}

// TestServeQueryDrain boots a real threatserver process with both
// ensembles and a metrics file, queries every endpoint over TCP, then
// SIGTERMs it and checks the graceful exit and the written report.
func TestServeQueryDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	metrics := filepath.Join(t.TempDir(), "report.json")
	s, stop := startServer(t, "-quake", "-metrics", metrics, "-drain", "30s")

	code, body := s.get("/v1/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if n := len(body["ensembles"].([]any)); n != 2 {
		t.Fatalf("loaded ensembles = %d, want 2 (hurricane, quake)", n)
	}

	// With two ensembles loaded the query must name one.
	if code, _ := s.get("/v1/sweep"); code != http.StatusBadRequest {
		t.Errorf("ambiguous sweep = %d, want 400", code)
	}
	for _, path := range []string{
		"/v1/sweep?ensemble=hurricane&scenario=both",
		"/v1/sweep?ensemble=quake&scenario=both",
		"/v1/figure/9?ensemble=hurricane",
		"/v1/placement?ensemble=hurricane&primary=honolulu-cc&scenario=intrusion&limit=3",
	} {
		if code, body := s.get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d %v", path, code, body)
		}
	}
	code, body = s.get("/v1/report")
	if code != http.StatusOK || body["schema"] != "compoundthreat/run-report/v2" {
		t.Fatalf("live report = %d %v", code, body)
	}

	if err := stop(); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		t.Fatalf("SIGTERM exit = %v, want clean\nstderr:\n%s", err, s.stderr.String())
	}
	s.mu.Lock()
	errOut := s.stderr.String()
	s.mu.Unlock()
	if !strings.Contains(errOut, "draining") {
		t.Errorf("stderr lacks a draining line:\n%s", errOut)
	}

	// The -metrics report written at exit carries the serving
	// instruments: request counters, cache counters, latency
	// histograms, and the in-flight gauge.
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("metrics report is not valid JSON: %v", err)
	}
	if rep.Schema != obs.ReportSchema || rep.Command != "threatserver" {
		t.Fatalf("report header = %q / %q", rep.Schema, rep.Command)
	}
	if got := rep.Counters["serve.requests.healthz"]; got != 1 {
		t.Errorf("serve.requests.healthz = %d, want 1", got)
	}
	if got := rep.Counters["serve.requests.sweep"]; got != 3 {
		t.Errorf("serve.requests.sweep = %d, want 3", got)
	}
	if rep.Counters["serve.cache_misses"] == 0 {
		t.Error("serve.cache_misses = 0, want > 0")
	}
	if h, ok := rep.Histogram["serve.latency_ns.sweep"]; !ok || h.Count == 0 {
		t.Error("sweep latency histogram missing from report")
	}
	g, ok := rep.Gauges["serve.inflight"]
	if !ok {
		t.Fatal("serve.inflight gauge missing from report")
	}
	if g.Value != 0 || g.High < 1 {
		t.Errorf("serve.inflight = %+v, want value 0 after drain, high >= 1", g)
	}
}

// getRaw fetches a URL and returns the raw body, for non-JSON
// endpoints such as /v1/metrics.
func (s *server) getRaw(path string) (int, string) {
	s.t.Helper()
	resp, err := http.Get(s.base + path)
	if err != nil {
		s.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestShutdownFlushOrdering boots a server with an access log and
// tracing, serves a few requests, SIGTERMs it, and asserts the
// shutdown drains in the documented order — the draining line, then
// the access-log flush, then the trace-buffer summary — and that the
// flushed access log holds one well-formed JSON line per request.
func TestShutdownFlushOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	logPath := filepath.Join(t.TempDir(), "access.log")
	s, stop := startServer(t, "-access-log", logPath, "-slow-trace", "1ns")

	paths := []string{
		"/v1/healthz",
		"/v1/sweep?scenario=both",
		"/v1/sweep?scenario=both", // warm-cache repeat: logged as a hit
	}
	for _, p := range paths {
		if code, body := s.get(p); code != http.StatusOK {
			t.Fatalf("GET %s = %d %v", p, code, body)
		}
	}
	// The live exposition endpoints serve while the process runs.
	if code, text := s.getRaw("/v1/metrics"); code != http.StatusOK || !strings.Contains(text, "serve_requests_sweep_total") {
		t.Errorf("/v1/metrics = %d, body:\n%s", code, text)
	}
	code, body := s.get("/v1/traces")
	if code != http.StatusOK || body["enabled"] != true {
		t.Errorf("/v1/traces = %d %v", code, body)
	}

	if err := stop(); err != nil {
		t.Fatalf("SIGTERM exit = %v, want clean", err)
	}
	s.mu.Lock()
	errOut := s.stderr.String()
	s.mu.Unlock()
	drainIdx := strings.Index(errOut, "draining")
	flushIdx := strings.Index(errOut, "access log flushed")
	summaryIdx := strings.Index(errOut, "trace summary:")
	if drainIdx < 0 || flushIdx < 0 || summaryIdx < 0 {
		t.Fatalf("stderr lacks drain/flush/summary lines:\n%s", errOut)
	}
	if !(drainIdx < flushIdx && flushIdx < summaryIdx) {
		t.Fatalf("shutdown lines out of order (drain@%d flush@%d summary@%d):\n%s",
			drainIdx, flushIdx, summaryIdx, errOut)
	}

	// Every served request — including the /v1/traces poll — must be in
	// the flushed log as one valid JSON line.
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	wantLines := len(paths) + 2 // + /v1/metrics + /v1/traces
	if len(lines) != wantLines {
		t.Fatalf("access log lines = %d, want %d:\n%s", len(lines), wantLines, raw)
	}
	sawHit := false
	for i, line := range lines {
		var e struct {
			RequestID  string `json:"request_id"`
			TraceID    string `json:"trace_id"`
			Endpoint   string `json:"endpoint"`
			Status     int    `json:"status"`
			Bytes      int64  `json:"bytes"`
			DurationNS int64  `json:"duration_ns"`
			Cache      string `json:"cache"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line %d is not JSON: %v\n%s", i, err, line)
		}
		if e.RequestID == "" || e.TraceID == "" || e.Endpoint == "" || e.Status != 200 || e.Bytes <= 0 || e.DurationNS <= 0 {
			t.Errorf("access log line %d incomplete: %s", i, line)
		}
		if e.Cache == "hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("no access log line recorded a cache hit for the repeated sweep")
	}
}

// TestEphemeralPortAndSeed: a second server on its own port with a
// fixed seed serves the single-ensemble default (no ensemble param
// needed) and rejects oversized bodies per -max-body.
func TestSingleEnsembleDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	s, stop := startServer(t, "-seed", "7", "-max-body", "128", "-cache", "2")
	if code, body := s.get("/v1/sweep"); code != http.StatusOK {
		t.Errorf("default sweep = %d %v", code, body)
	}
	big, err := http.Post(s.base+"/v1/sweep", "application/json",
		strings.NewReader(`{"scenario": "both", "configs": ["`+strings.Repeat("x", 256)+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413", big.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("SIGTERM exit = %v, want clean", err)
	}
}
