// Command threatserver is the long-running compound-threat analysis
// server: it generates the Oahu disaster ensembles once at startup and
// then answers sweep, figure, and placement queries over HTTP, serving
// from a cache of precompiled failure matrices (see internal/serve and
// docs/API.md).
//
// Usage:
//
//	threatserver [-addr 127.0.0.1:8321] [-realizations N] [-seed S]
//	             [-quake] [-workers N] [-cache N] [-timeout D]
//	             [-max-inflight N] [-max-body N] [-drain D]
//	             [-handoff URL] [-handoff-views N]
//	             [-job-timeout D] [-job-retention N]
//	             [-store DIR] [-max-upload N] [-max-upload-realizations N]
//	             [-quota-objects N] [-quota-bytes N]
//	             [-trace-buffer N] [-slow-trace D] [-access-log FILE]
//	             [-runtime-interval D] [-metrics report.json] [-pprof addr]
//
// The hurricane ensemble is always loaded (served as "hurricane");
// -quake additionally loads the earthquake ensemble (served as
// "quake"). User-uploaded scenarios (POST /v1/topologies, POST
// /v1/ensembles — see docs/API.md "The write API") are accepted on
// every server; with -store DIR they persist content-addressed under
// DIR and a restarted server re-serves them warm without re-upload
// (see docs/STORAGE.md). -max-upload bounds upload bodies,
// -max-upload-realizations bounds one generation request, and
// -quota-objects/-quota-bytes bound each client's stored footprint. Unlike the batch CLIs, the server always runs with a live
// recorder so GET /v1/metrics exposes Prometheus text exposition;
// -metrics additionally writes the JSON run report at exit. Tracing is
// on by default (-trace-buffer 0 disables it): every request gets a
// trace whose spans are served at GET /v1/traces, a single trace is
// fetched by ID at GET /v1/traces/{id} (the lookup threatrouter's
// trace stitcher uses), and traces at or over -slow-trace are retained
// in a separate slow ring. A request arriving with a W3C traceparent
// header (as the router injects) runs under the caller's trace ID, so
// one trace spans the fleet. -access-log writes one structured JSON
// line per request ("-" for stderr).
//
// On SIGINT/SIGTERM the server stops accepting connections
// immediately, gives in-flight requests up to -drain to finish, then
// flushes the access log, prints a trace-buffer summary, and finally
// writes the -metrics report — in that order, so every shutdown
// artifact covers the full run. With -handoff set, the drained server
// first streams its hottest compiled views (wire-encoded, capped by
// -handoff-views) and every finished placement job to the successor at
// that URL, so a rolling restart keeps the replacement's cache warm
// and its inherited jobs pollable.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/seismic"
	"compoundthreat/internal/serve"
	"compoundthreat/internal/store"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
)

// main delegates to run so deferred cleanup (metrics flush, pprof
// shutdown) executes before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "threatserver:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("threatserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	realizations := fs.Int("realizations", 1000, "disaster realizations per ensemble")
	seed := fs.Int64("seed", 0, "ensemble seed override (0 = calibrated default)")
	quake := fs.Bool("quake", false, `also load the earthquake ensemble (served as "quake")`)
	workers := fs.Int("workers", 0, "evaluation worker bound (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 0, "compiled-view cache capacity in entries (0 = 64)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	maxInflight := fs.Int("max-inflight", 0, "concurrently evaluating requests (0 = two per CPU)")
	maxBody := fs.Int64("max-body", 1<<20, "maximum POST body bytes")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained per ring for /v1/traces (0 = tracing off)")
	slowTrace := fs.Duration("slow-trace", 250*time.Millisecond, "retain traces at or over this duration in the slow ring (0 = slow ring off)")
	accessLog := fs.String("access-log", "", `write one JSON access-log line per request to this file ("-" = stderr)`)
	handoff := fs.String("handoff", "", "successor base URL to stream hot views and finished jobs to after draining")
	handoffViews := fs.Int("handoff-views", 0, "cap on views streamed at handoff, hottest first (0 = all)")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job deadline for async placement searches and ensemble generation")
	jobRetention := fs.Int("job-retention", 0, "finished placement jobs kept pollable (0 = 64)")
	storeDir := fs.String("store", "", "persist uploaded scenarios content-addressed under this directory (empty = memory-only uploads)")
	maxUpload := fs.Int64("max-upload", 0, "maximum topology/ensemble upload body bytes (0 = 4 MiB)")
	maxUploadRealizations := fs.Int("max-upload-realizations", 0, "maximum realizations per generation request (0 = 5000)")
	quotaObjects := fs.Int("quota-objects", 0, "stored objects allowed per client (0 = 64)")
	quotaBytes := fs.Int64("quota-bytes", 0, "stored bytes allowed per client (0 = 64 MiB)")
	runtimeInterval := fs.Duration("runtime-interval", 10*time.Second, "runtime sampler interval for goroutine/heap/GC gauges (0 = off)")
	var ocli obs.CLI
	ocli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Observability must be live before serve.New: the server resolves
	// its instruments and tracer at construction. A server always runs
	// with a recorder (for /v1/metrics); -metrics decides only whether
	// the JSON report is also written at exit.
	if err := ocli.Start("threatserver", args, os.Stderr); err != nil {
		return err
	}
	defer func() {
		if cerr := ocli.Close(); err == nil {
			err = cerr
		}
	}()
	rec := ocli.Recorder()
	if rec == nil {
		rec = obs.New()
		obs.Enable(rec)
		defer obs.Enable(nil)
	}
	var tracer *obs.Tracer
	if *traceBuffer > 0 {
		tracer = obs.NewTracer(*traceBuffer, *slowTrace)
		obs.EnableTracing(tracer)
		defer obs.EnableTracing(nil)
	}
	stopSampler := obs.StartRuntimeSampler(rec, *runtimeInterval)
	defer stopSampler()

	// The access log is buffered; the flush runs after the drain so the
	// file holds every served request when the process exits.
	var accessW io.Writer
	flushAccess := func() error { return nil }
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, ferr := os.Create(*accessLog)
		if ferr != nil {
			return ferr
		}
		bw := bufio.NewWriter(f)
		accessW = bw
		flushAccess = func() error {
			if ferr := bw.Flush(); ferr != nil {
				f.Close()
				return ferr
			}
			return f.Close()
		}
	}

	inv := assets.Oahu()
	ensembles := make(map[string]serve.Ensemble, 2)
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), inv)
	if err != nil {
		return err
	}
	hcfg := hazard.OahuScenario()
	hcfg.Realizations = *realizations
	if *seed != 0 {
		hcfg.Seed = *seed
	}
	fmt.Fprintf(os.Stderr, "generating %d hurricane realizations...\n", hcfg.Realizations)
	span := rec.StartSpan("cli.generate_ensemble_ns")
	hurricane, err := gen.Generate(hcfg)
	span.End()
	if err != nil {
		return err
	}
	ensembles["hurricane"] = hurricane
	if *quake {
		qcfg := seismic.OahuScenario()
		qcfg.Realizations = *realizations
		if *seed != 0 {
			qcfg.Seed = *seed
		}
		fmt.Fprintf(os.Stderr, "generating %d earthquake realizations...\n", qcfg.Realizations)
		qspan := rec.StartSpan("cli.generate_quake_ensemble_ns")
		quakes, err := seismic.Generate(qcfg, inv)
		qspan.End()
		if err != nil {
			return err
		}
		ensembles["quake"] = quakes
	}

	var st *store.Store
	if *storeDir != "" {
		var cleaned int
		st, cleaned, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "store %s: %d objects (%d bytes), %d invalid files cleaned\n",
			*storeDir, st.Len(), st.Bytes(), cleaned)
	}
	s, err := serve.New(ensembles, inv, serve.Options{
		Workers:               *workers,
		MaxInflight:           *maxInflight,
		CacheEntries:          *cacheEntries,
		Timeout:               *timeout,
		MaxBodyBytes:          *maxBody,
		AccessLog:             accessW,
		JobTimeout:            *jobTimeout,
		JobRetention:          *jobRetention,
		Store:                 st,
		MaxUploadBytes:        *maxUpload,
		MaxUploadRealizations: *maxUploadRealizations,
		QuotaObjects:          *quotaObjects,
		QuotaBytes:            *quotaBytes,
	})
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
	err = serve.Run(ctx, ln, s.Handler(), *drain, os.Stderr)
	// Warm handoff runs after the drain (the view set is final) and
	// before Close (finished jobs are still exportable): the successor
	// inherits the hottest compiled views and every pollable result.
	if *handoff != "" {
		hctx, hcancel := context.WithTimeout(context.Background(), *drain)
		rep, herr := s.Handoff(hctx, *handoff, *handoffViews)
		hcancel()
		if herr != nil {
			fmt.Fprintf(os.Stderr, "handoff to %s failed: %v\n", *handoff, herr)
			if err == nil {
				err = herr
			}
		} else {
			fmt.Fprintf(os.Stderr, "handed off %d views (%d skipped) and %d jobs to %s\n",
				rep.Views, rep.SkippedViews, rep.Jobs, *handoff)
		}
	}
	// Cancel any still-running placement jobs before the artifact
	// flushes so their terminal counters land in the -metrics report.
	s.Close()

	// Shutdown artifacts, in documented order: the drain above already
	// finished every in-flight request, so the access log flush covers
	// them all, the trace summary counts them, and the deferred
	// ocli.Close writes the -metrics report last.
	stopSampler()
	if ferr := flushAccess(); ferr != nil && err == nil {
		err = ferr
	}
	if *accessLog != "" && *accessLog != "-" {
		fmt.Fprintf(os.Stderr, "access log flushed to %s\n", *accessLog)
	}
	if tracer != nil {
		st := tracer.Stats()
		fmt.Fprintf(os.Stderr, "trace summary: started=%d finished=%d slow=%d dropped_spans=%d retained=%d\n",
			st.Started, st.Finished, st.Slow, st.DroppedSpans, len(tracer.Recent()))
	}
	return err
}
