package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"compoundthreat/internal/racetest"
)

// manualClock is a manually advanced clock for deterministic trace
// durations (unlike report_test's fakeClock, which auto-advances per
// reading).
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1700000000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTracer(capacity int, slow time.Duration) (*Tracer, *manualClock) {
	tr := NewTracer(capacity, slow)
	clk := newManualClock()
	tr.now = clk.Now
	return tr, clk
}

// TestTraceSpanTree builds a small trace and checks the report rebuilds
// the span tree — names, nesting, offsets, durations, notes — from the
// flat parent-linked span list.
func TestTraceSpanTree(t *testing.T) {
	tr, clk := newTestTracer(4, 0)
	trace := tr.Start("sweep")

	clk.Advance(10 * time.Millisecond)
	validate := trace.StartSpan("validate")
	clk.Advance(5 * time.Millisecond)
	validate.End()

	cache := trace.StartSpan("cache")
	cache.Annotate("cache", "miss")
	compile := cache.StartChild("compile")
	clk.Advance(30 * time.Millisecond)
	compile.End()
	cache.End()

	eval := trace.StartSpan("evaluate")
	clk.Advance(50 * time.Millisecond)
	eval.End()
	trace.Finish()

	if got := trace.Duration(); got != 95*time.Millisecond {
		t.Fatalf("trace duration = %v, want 95ms", got)
	}
	rep := trace.Report()
	if rep.Name != "sweep" || len(rep.Spans) != 1 {
		t.Fatalf("report = %+v, want one root span named sweep", rep)
	}
	root := rep.Spans[0]
	if root.Name != "sweep" || root.DurationNS != (95*time.Millisecond).Nanoseconds() {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d, want 3 (validate, cache, evaluate)", len(root.Children))
	}
	v, c, e := root.Children[0], root.Children[1], root.Children[2]
	if v.Name != "validate" || v.StartNS != (10*time.Millisecond).Nanoseconds() || v.DurationNS != (5*time.Millisecond).Nanoseconds() {
		t.Fatalf("validate span = %+v", v)
	}
	if c.Name != "cache" || c.Notes["cache"] != "miss" || len(c.Children) != 1 {
		t.Fatalf("cache span = %+v", c)
	}
	if c.Children[0].Name != "compile" || c.Children[0].DurationNS != (30*time.Millisecond).Nanoseconds() {
		t.Fatalf("compile span = %+v", c.Children[0])
	}
	if e.Name != "evaluate" || e.DurationNS != (50*time.Millisecond).Nanoseconds() {
		t.Fatalf("evaluate span = %+v", e)
	}
}

// TestTraceIDs checks IDs are 16 hex digits and process-unique.
func TestTraceIDs(t *testing.T) {
	tr, _ := newTestTracer(4, 0)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := tr.Start("t").ID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestTraceRingRetention fills the recent ring past capacity and
// checks the newest-first snapshot; slow traces must survive in the
// slow ring even after the recent ring cycles.
func TestTraceRingRetention(t *testing.T) {
	tr, clk := newTestTracer(3, 100*time.Millisecond)

	slow := tr.Start("slow-query")
	clk.Advance(200 * time.Millisecond)
	slow.Finish()
	if !slow.Slow() {
		t.Fatal("200ms trace over a 100ms threshold must be slow")
	}

	for i := 0; i < 5; i++ {
		fast := tr.Start(fmt.Sprintf("fast-%d", i))
		clk.Advance(time.Millisecond)
		fast.Finish()
	}

	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent ring holds %d traces, want capacity 3", len(recent))
	}
	for i, want := range []string{"fast-4", "fast-3", "fast-2"} {
		if recent[i].Name() != want {
			t.Fatalf("recent[%d] = %q, want %q (newest first)", i, recent[i].Name(), want)
		}
	}
	slowTraces := tr.Slow()
	if len(slowTraces) != 1 || slowTraces[0].Name() != "slow-query" {
		t.Fatalf("slow ring = %v, want the one slow trace", slowTraces)
	}

	st := tr.Stats()
	if st.Started != 6 || st.Finished != 6 || st.Slow != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTraceSlowDisabled checks a non-positive threshold keeps the slow
// ring empty.
func TestTraceSlowDisabled(t *testing.T) {
	tr, clk := newTestTracer(2, 0)
	trace := tr.Start("x")
	clk.Advance(time.Hour)
	trace.Finish()
	if trace.Slow() || len(tr.Slow()) != 0 {
		t.Fatal("slow retention must be off when threshold <= 0")
	}
}

// TestTraceFinishIdempotent finishes twice and opens spans after
// finish: the duration must not change and late spans are dropped and
// counted.
func TestTraceFinishIdempotent(t *testing.T) {
	tr, clk := newTestTracer(4, 0)
	trace := tr.Start("x")
	open := trace.StartSpan("left-open")
	clk.Advance(time.Millisecond)
	trace.Finish()
	clk.Advance(time.Hour)
	trace.Finish()
	if got := trace.Duration(); got != time.Millisecond {
		t.Fatalf("second Finish changed duration to %v", got)
	}
	rep := trace.Report()
	if d := rep.Spans[0].Children[0].DurationNS; d != time.Millisecond.Nanoseconds() {
		t.Fatalf("open span not closed at trace end: %dns", d)
	}
	_ = open

	if s := trace.StartSpan("late"); s != nil {
		t.Fatal("span opened after Finish must be nil")
	}
	if st := tr.Stats(); st.DroppedSpans != 1 {
		t.Fatalf("dropped spans = %d, want 1", st.DroppedSpans)
	}
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("recent ring holds %d, want 1 (no double publication)", got)
	}
}

// TestTraceSpanCap opens more spans than maxTraceSpans and checks the
// excess is dropped, counted, and surfaced in the report.
func TestTraceSpanCap(t *testing.T) {
	tr, _ := newTestTracer(2, 0)
	trace := tr.Start("big")
	for i := 0; i < maxTraceSpans+10; i++ {
		trace.StartSpan("s").End()
	}
	trace.Finish()
	rep := trace.Report()
	if rep.DroppedSpans != 11 { // the root takes one slot, so 511 fit and 11 drop
		t.Fatalf("dropped = %d, want 11", rep.DroppedSpans)
	}
	if got := tr.Stats().DroppedSpans; got != 11 {
		t.Fatalf("tracer dropped = %d, want 11", got)
	}
}

// TestTraceNilSafety drives every Tracer/Trace/TraceSpan method
// through nil receivers; nothing may panic and reads return zeros.
func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Start("x") != nil || tr.Recent() != nil || tr.Slow() != nil {
		t.Fatal("nil tracer must hand out nils")
	}
	if tr.Capacity() != 0 || tr.SlowThreshold() != 0 || (tr.Stats() != TracerStats{}) {
		t.Fatal("nil tracer reads must be zero")
	}

	var trace *Trace
	trace.Finish()
	if trace.StartSpan("s") != nil || trace.ID() != "" || trace.Name() != "" ||
		trace.Duration() != 0 || trace.Slow() || trace.Root() != nil {
		t.Fatal("nil trace must no-op")
	}
	if rep := trace.Report(); rep.TraceID != "" || rep.Spans != nil {
		t.Fatalf("nil trace report = %+v", rep)
	}

	var span *TraceSpan
	span.End()
	span.Annotate("k", "v")
	if span.StartChild("c") != nil {
		t.Fatal("nil span StartChild must be nil")
	}

	// Context round-trips: nil values leave the context untouched.
	ctx := context.Background()
	if ContextWithTrace(ctx, nil) != ctx || ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil trace/span must not wrap the context")
	}
	if TraceFromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("empty context must yield nils")
	}
	// The canonical call chain when tracing is off must be safe.
	SpanFromContext(ctx).StartChild("phase").End()
}

// TestTraceContextPropagation checks a trace and span travel through a
// context independently.
func TestTraceContextPropagation(t *testing.T) {
	tr, _ := newTestTracer(2, 0)
	trace := tr.Start("req")
	span := trace.StartSpan("phase")
	ctx := ContextWithSpan(ContextWithTrace(context.Background(), trace), span)
	if TraceFromContext(ctx) != trace {
		t.Fatal("trace did not round-trip")
	}
	if SpanFromContext(ctx) != span {
		t.Fatal("span did not round-trip")
	}
	child := SpanFromContext(ctx).StartChild("inner")
	if child == nil {
		t.Fatal("child span via context is nil")
	}
	child.End()
	span.End()
	trace.Finish()
	rep := trace.Report()
	if rep.Spans[0].Children[0].Children[0].Name != "inner" {
		t.Fatalf("inner span not nested under phase: %+v", rep.Spans[0])
	}
}

// TestTraceDisabledZeroAlloc proves the disabled tracing path — the
// exact call shapes instrumented code uses — allocates nothing.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		trace := tr.Start("req")
		c := ContextWithTrace(ctx, trace)
		s := SpanFromContext(c).StartChild("phase")
		s.Annotate("k", "v")
		s.End()
		trace.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v times per run", allocs)
	}
}

// TestTraceConcurrent hammers one trace from many goroutines (parallel
// engine workers share the request trace) while a reader snapshots the
// rings; run with -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer(8, time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				trace := tr.Start("req")
				s := trace.StartSpan("phase")
				s.StartChild("inner").End()
				s.Annotate("i", "x")
				s.End()
				trace.Finish()
				trace.Report()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, tc := range tr.Recent() {
				tc.Report()
			}
			tr.Slow()
			tr.Stats()
		}
	}()
	wg.Wait()
	if st := tr.Stats(); st.Started != 800 || st.Finished != 800 {
		t.Fatalf("stats = %+v, want 800 started/finished", st)
	}
}
