package shard

// Trace stitching. Every call the router proxies carries a traceparent
// header naming the router's client-call span ("backend.N") as the
// remote parent, and the worker retains its half of the request under
// the shared trace ID (see obs.Tracer.StartRemote). Stitching turns
// those two halves back into one tree on demand: for each backend a
// router trace touched, fetch GET /v1/traces/{id} from that worker and
// splice the worker's root span under the client-call span whose ID the
// worker recorded as its remote parent. The hop's network cost becomes
// explicit — the client-call span's duration minus the worker root's
// duration is annotated as net_ns on the client-call span. Worker span
// offsets stay worker-relative (the two processes' clocks are not
// comparable); the splice point, not the timestamps, carries the
// cross-process ordering.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"compoundthreat/internal/obs"
	"compoundthreat/internal/serve"
)

// stitchDefaultLimit bounds how many traces a stitched listing renders
// when the caller does not pass limit — each stitched trace costs one
// backend fetch per worker it touched, so the default is small.
const stitchDefaultLimit = 8

// boolParam reads a 0/1 (or false/true) query parameter.
func boolParam(v string) bool { return v == "1" || v == "true" }

// handleTraces lists the router's completed traces (recent and slow
// rings), mirroring the worker endpoint. With stitch=1 each listed
// trace additionally has its worker spans spliced in, and the listing
// limit defaults to stitchDefaultLimit to bound backend fetches.
func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) error {
	if err := serve.CheckParams(r.URL.Query(), "limit", "stitch"); err != nil {
		return err
	}
	q := r.URL.Query()
	stitch := boolParam(q.Get("stitch"))
	limit := 0
	if l := q.Get("limit"); l != "" {
		var err error
		limit, err = strconv.Atoi(l)
		if err != nil || limit <= 0 {
			return &routerError{status: http.StatusBadRequest, code: "bad_request",
				message: fmt.Sprintf("limit %q is not a positive integer", l)}
		}
	} else if stitch {
		limit = stitchDefaultLimit
	}
	w.Header().Set("Content-Type", "application/json")
	if rt.tracer == nil {
		return json.NewEncoder(w).Encode(map[string]any{"enabled": false})
	}
	render := func(traces []*obs.Trace) []obs.TraceReport {
		if limit > 0 && limit < len(traces) {
			traces = traces[:limit]
		}
		out := make([]obs.TraceReport, len(traces))
		for i, t := range traces {
			out[i] = t.Report()
			if stitch {
				rt.stitch(r.Context(), &out[i])
			}
		}
		return out
	}
	st := rt.tracer.Stats()
	return json.NewEncoder(w).Encode(map[string]any{
		"enabled":           true,
		"stitched":          stitch,
		"capacity":          rt.tracer.Capacity(),
		"slow_threshold_ns": rt.tracer.SlowThreshold().Nanoseconds(),
		"stats": map[string]int64{
			"started":       st.Started,
			"finished":      st.Finished,
			"slow":          st.Slow,
			"dropped_spans": st.DroppedSpans,
		},
		"recent": render(rt.tracer.Recent()),
		"slow":   render(rt.tracer.Slow()),
	})
}

// handleTraceGet serves one completed router trace by ID, stitched with
// its worker halves by default (stitch=0 opts out, returning only the
// router-side tree).
func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	if err := serve.CheckParams(r.URL.Query(), "stitch"); err != nil {
		return err
	}
	if rt.tracer == nil {
		return &routerError{status: http.StatusNotFound, code: "not_found", message: "tracing is disabled"}
	}
	id := r.PathValue("id")
	t := rt.tracer.Find(id)
	if t == nil {
		return &routerError{status: http.StatusNotFound, code: "not_found",
			message: fmt.Sprintf("unknown trace %q (completed traces are retained for the last %d requests)", id, rt.tracer.Capacity())}
	}
	rep := t.Report()
	if s := r.URL.Query().Get("stitch"); s == "" || boolParam(s) {
		rt.stitch(r.Context(), &rep)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(rep)
}

// stitch fetches the worker-side halves of one router trace and splices
// them into the report in place. A backend whose trace cannot be
// fetched (worker restarted, ring evicted, tracing off) is recorded as
// a stitch_backend_N note on the root rather than failing the request —
// a partially stitched trace still answers the operator's question.
func (rt *Router) stitch(ctx context.Context, rep *obs.TraceReport) {
	if len(rep.Spans) == 0 {
		return
	}
	idxs := make(map[int]bool)
	collectBackendIndexes(rep.Spans, idxs)
	type fetched struct {
		idx int
		rep obs.TraceReport
		err error
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]fetched, 0, len(idxs))
	for idx := range idxs {
		if idx < 0 || idx >= len(rt.backends) {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			var wrep obs.TraceReport
			err := rt.backends[idx].getJSON(ctx, "/v1/traces/"+rep.TraceID, &wrep)
			mu.Lock()
			results = append(results, fetched{idx: idx, rep: wrep, err: err})
			mu.Unlock()
		}(idx)
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].idx < results[j].idx })

	// Resolve every splice point before mutating: spliced worker spans
	// carry worker-local span IDs that may collide with router span IDs,
	// so a lookup after a splice could land inside a foreign subtree.
	root := &rep.Spans[0]
	parents := make([]*obs.SpanReport, len(results))
	for i, f := range results {
		if f.err == nil && len(f.rep.Spans) > 0 {
			parents[i] = findSpanByID(rep.Spans, int32(f.rep.RemoteParentSpan))
		}
	}
	for i, f := range results {
		if f.err != nil || len(f.rep.Spans) == 0 {
			annotateReport(root, "stitch_backend_"+strconv.Itoa(f.idx), "unavailable")
			continue
		}
		parent := parents[i]
		if parent == nil {
			annotateReport(root, "stitch_backend_"+strconv.Itoa(f.idx), "orphaned")
			continue
		}
		child := f.rep.Spans[0]
		annotateReport(&child, "remote_backend", strconv.Itoa(f.idx))
		if net := parent.DurationNS - child.DurationNS; net >= 0 {
			annotateReport(parent, "net_ns", strconv.FormatInt(net, 10))
		}
		parent.Children = append(parent.Children, child)
	}
}

// collectBackendIndexes gathers the backend indexes annotated on the
// router's client-call spans (see forwardSpanned).
func collectBackendIndexes(spans []obs.SpanReport, out map[int]bool) {
	for i := range spans {
		if v, ok := spans[i].Notes["backend"]; ok {
			if idx, err := strconv.Atoi(v); err == nil {
				out[idx] = true
			}
		}
		collectBackendIndexes(spans[i].Children, out)
	}
}

// findSpanByID returns a pointer to the span with the given ID in the
// (pre-splice) report tree, or nil.
func findSpanByID(spans []obs.SpanReport, id int32) *obs.SpanReport {
	if id == 0 {
		return nil
	}
	for i := range spans {
		if spans[i].ID == id {
			return &spans[i]
		}
		if s := findSpanByID(spans[i].Children, id); s != nil {
			return s
		}
	}
	return nil
}

// annotateReport sets one note on a rendered span.
func annotateReport(s *obs.SpanReport, key, value string) {
	if s.Notes == nil {
		s.Notes = make(map[string]string, 1)
	}
	s.Notes[key] = value
}
