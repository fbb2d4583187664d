// Command threatrouter is the routing tier of a sharded threatserver
// deployment: it consistent-hashes each query's compiled view onto a
// fixed pool of threatserver workers, answers repeated reads from a
// bounded response memo keyed on ensemble content fingerprints,
// coalesces identical in-flight misses, retries worker failures onto
// ring successors, and keeps async placement job polls sticky to the
// worker that owns them (see internal/shard and docs/API.md).
//
// Usage:
//
//	threatrouter -backends http://host:8321,http://host:8322
//	             [-addr 127.0.0.1:8320] [-replicas N] [-timeout D]
//	             [-hedge D] [-health-interval D] [-max-body N]
//	             [-max-upload N] [-drain D] [-trace-buffer N]
//	             [-slow-trace D] [-metrics report.json] [-pprof addr]
//
// The router holds no ensemble data and compiles nothing: it resolves
// ensemble names to content fingerprints from worker health responses
// and forwards each query to the worker owning its view. Scenario
// uploads (POST /v1/topologies, POST /v1/ensembles, bounded by
// -max-upload) shard by content id, so a topology and every generation
// against it land on one worker; queries naming an uploaded ensemble
// prefer the workers advertising its fingerprint, and GET
// /v1/topologies aggregates every worker's listing. Like the
// workers it always runs with a live recorder, so GET /v1/metrics
// exposes the memo's hits, admissions, evictions and stored bytes
// (shard.memo_*), the split of misses into backend calls and joined
// waiters (shard.batch_leaders vs shard.batch_joined), retry/hedge
// counts, and per-backend traffic;
// GET /v1/metrics?fleet=1 additionally scrapes every healthy worker
// and merges the fleet into one exposition with per-backend labels;
// -metrics additionally writes the JSON run report at exit.
//
// Request tracing is on by default (-trace-buffer 0 disables it):
// every routed request runs under a trace whose ID is propagated to
// the worker via a W3C traceparent header, and GET /v1/traces/{id}
// splices the worker's half of the trace (fetched from the worker's
// own trace endpoint) under the router's client-call span, with the
// per-hop network time annotated. Traces at or over -slow-trace are
// retained in a separate slow ring.
//
// On SIGINT/SIGTERM the router stops accepting connections, gives
// in-flight requests up to -drain to finish, and exits; workers drain
// independently.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
	"compoundthreat/internal/shard"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "threatrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("threatrouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8320", "listen address")
	backends := fs.String("backends", "", "comma-separated worker base URLs (required)")
	replicas := fs.Int("replicas", 0, "ring points per backend (0 = 64)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-request deadline, covering retries and hedges")
	hedge := fs.Duration("hedge", 0, "hedge sweep, figure and placement reads onto a second worker after this delay (0 = off)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "worker health probe period")
	maxBody := fs.Int64("max-body", 1<<20, "maximum POST body bytes")
	maxUpload := fs.Int64("max-upload", 0, "maximum topology/ensemble upload body bytes (0 = 4 MiB)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained per ring for /v1/traces (0 = tracing off)")
	slowTrace := fs.Duration("slow-trace", 250*time.Millisecond, "retain traces at or over this duration in the slow ring (0 = slow ring off)")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated worker URLs)")
	}
	// The router always runs with a live recorder so /v1/metrics works;
	// -metrics decides only whether the JSON report is also written.
	if err := ocli.Start("threatrouter", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	if ocli.Recorder() == nil {
		rec := obs.New()
		obs.Enable(rec)
		defer obs.Enable(nil)
	}
	// The tracer must be installed before shard.New: the router
	// resolves it once at construction, like the workers.
	var tracer *obs.Tracer
	if *traceBuffer > 0 {
		tracer = obs.NewTracer(*traceBuffer, *slowTrace)
		obs.EnableTracing(tracer)
		defer obs.EnableTracing(nil)
	}

	rt, err := shard.New(shard.Options{
		Backends:       strings.Split(*backends, ","),
		Replicas:       *replicas,
		Timeout:        *timeout,
		Hedge:          *hedge,
		HealthInterval: *healthInterval,
		MaxBodyBytes:   *maxBody,
		MaxUploadBytes: *maxUpload,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "routing %d backends, listening on %s\n", len(strings.Split(*backends, ",")), ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runErr := serve.Run(ctx, ln, rt.Handler(), *drain, os.Stderr)
	if tracer != nil {
		st := tracer.Stats()
		fmt.Fprintf(os.Stderr, "trace summary: started=%d finished=%d slow=%d dropped_spans=%d retained=%d\n",
			st.Started, st.Finished, st.Slow, st.DroppedSpans, len(tracer.Recent()))
	}
	return runErr
}
