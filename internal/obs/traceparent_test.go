package obs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/racetest"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tp := TraceParent{TraceID: 0x0123456789abcdef, SpanID: 0x00000000000000a7, Sampled: true}
	s := tp.String()
	want := "00-00000000000000000123456789abcdef-00000000000000a7-01"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
	got, err := ParseTraceParent(s)
	if err != nil {
		t.Fatalf("ParseTraceParent(%q): %v", s, err)
	}
	if got != tp {
		t.Fatalf("round trip: got %+v, want %+v", got, tp)
	}

	unsampled := TraceParent{TraceID: 1, SpanID: 2}
	got, err = ParseTraceParent(unsampled.String())
	if err != nil {
		t.Fatalf("unsampled round trip: %v", err)
	}
	if got.Sampled {
		t.Fatal("unsampled header parsed as sampled")
	}
}

func TestTraceParentParseWideTraceID(t *testing.T) {
	// A full-width 128-bit trace ID from a foreign tracer keeps its low
	// 64 bits.
	got, err := ParseTraceParent("00-deadbeefdeadbeef0123456789abcdef-000000000000000f-01")
	if err != nil {
		t.Fatalf("wide trace id: %v", err)
	}
	if got.TraceID != 0x0123456789abcdef || got.SpanID != 0xf {
		t.Fatalf("wide trace id parsed as %+v", got)
	}
}

func TestTraceParentParseErrors(t *testing.T) {
	valid := "00-00000000000000000123456789abcdef-00000000000000a7-01"
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty", "", ErrTraceParentLength},
		{"short", valid[:54], ErrTraceParentLength},
		{"long", valid + "0", ErrTraceParentLength},
		{"bad version", "01" + valid[2:], ErrTraceParentVersion},
		{"version ff", "ff" + valid[2:], ErrTraceParentVersion},
		{"version not hex", "zz" + valid[2:], ErrTraceParentSyntax},
		{"missing dash", strings.Replace(valid, "-", "_", 1), ErrTraceParentSyntax},
		{"uppercase hex", strings.Replace(valid, "a", "A", 1), ErrTraceParentSyntax},
		{"non-hex trace id", "00-g" + valid[4:], ErrTraceParentSyntax},
		{"non-hex flags", valid[:53] + "0g", ErrTraceParentSyntax},
		{"zero trace id", "00-00000000000000000000000000000000-00000000000000a7-01", ErrTraceParentZero},
		{"zero span id", "00-00000000000000000123456789abcdef-0000000000000000-01", ErrTraceParentZero},
	}
	for _, tc := range cases {
		if _, err := ParseTraceParent(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: ParseTraceParent(%q) err = %v, want %v", tc.name, tc.in, err, tc.want)
		}
	}
}

// FuzzTraceParent checks the parser's invariants against arbitrary
// input: it never panics, accepts only exact-length lowercase-hex
// headers, and everything it accepts re-renders to a header it accepts
// again with the same decoded fields.
func FuzzTraceParent(f *testing.F) {
	f.Add("00-00000000000000000123456789abcdef-00000000000000a7-01")
	f.Add("00-deadbeefdeadbeefdeadbeefdeadbeef-cafef00dcafef00d-00")
	f.Add("")
	f.Add("ff-00000000000000000000000000000000-0000000000000000-00")
	f.Add(strings.Repeat("0", 55))
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseTraceParent(s)
		if err != nil {
			if tp != (TraceParent{}) {
				t.Fatalf("rejected input %q returned non-zero value %+v", s, tp)
			}
			return
		}
		if len(s) != 55 {
			t.Fatalf("accepted %d-byte input %q", len(s), s)
		}
		if tp.TraceID == 0 || tp.SpanID == 0 {
			t.Fatalf("accepted zero identity from %q: %+v", s, tp)
		}
		again, err := ParseTraceParent(tp.String())
		if err != nil {
			t.Fatalf("re-render of %q (%+v) does not parse: %v", s, tp, err)
		}
		// The high 64 bits of a foreign trace ID are dropped on render,
		// so compare decoded fields, not strings.
		if again != tp {
			t.Fatalf("round trip changed %+v to %+v", tp, again)
		}
	})
}

func TestStartRemoteAdoptsTraceContext(t *testing.T) {
	tr, clk := newTestTracer(4, 0)
	tp := TraceParent{TraceID: 0xfeedface12345678, SpanID: 7, Sampled: true}
	trace := tr.StartRemote("sweep", tp)
	if trace.ID() != "feedface12345678" {
		t.Fatalf("remote trace ID = %q, want feedface12345678", trace.ID())
	}
	sp := trace.StartSpan("evaluate")
	clk.Advance(time.Millisecond)
	sp.End()
	trace.Finish()

	rep := trace.Report()
	if rep.RemoteParentSpan != 7 {
		t.Fatalf("RemoteParentSpan = %d, want 7", rep.RemoteParentSpan)
	}
	if rep.TraceID != "feedface12345678" {
		t.Fatalf("report trace ID = %q", rep.TraceID)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].ID != 1 {
		t.Fatalf("root span ID = %+v, want 1", rep.Spans)
	}
	if len(rep.Spans[0].Children) != 1 || rep.Spans[0].Children[0].ID != 2 {
		t.Fatalf("child span IDs = %+v", rep.Spans[0].Children)
	}

	// A locally rooted trace reports no remote parent.
	local := tr.Start("local")
	local.Finish()
	if got := local.Report().RemoteParentSpan; got != 0 {
		t.Fatalf("local trace RemoteParentSpan = %d, want 0", got)
	}
}

func TestTracerFind(t *testing.T) {
	tr, _ := newTestTracer(4, 50*time.Millisecond)
	trace := tr.Start("sweep")
	id := trace.ID()
	if tr.Find(id) != nil {
		t.Fatal("Find returned an unfinished trace")
	}
	trace.Finish()
	if got := tr.Find(id); got != trace {
		t.Fatalf("Find(%q) = %v, want the finished trace", id, got)
	}
	if tr.Find("000000000000000z") != nil {
		t.Fatal("Find accepted a non-hex ID")
	}
	if tr.Find("abc") != nil {
		t.Fatal("Find accepted a short ID")
	}
	var nilTr *Tracer
	if nilTr.Find(id) != nil {
		t.Fatal("nil tracer Find != nil")
	}

	// Eviction: push capacity+1 more traces; the first must age out of
	// the recent ring.
	for i := 0; i < 5; i++ {
		tr.Start("filler").Finish()
	}
	if tr.Find(id) != nil {
		t.Fatal("Find returned a trace evicted from the recent ring")
	}
}

func TestTraceParentZeroAllocDisabled(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	// The full propagation path with tracing off: parse the inbound
	// header, consult the (nil) tracer, thread contexts, render the
	// outbound header. None of it may allocate.
	var tr *Tracer
	ctx := t.Context()
	header := "00-00000000000000000123456789abcdef-00000000000000a7-01"
	allocs := testing.AllocsPerRun(100, func() {
		tp, err := ParseTraceParent(header)
		if err != nil {
			t.Fatal(err)
		}
		trace := tr.StartRemote("sweep", tp)
		c := ContextWithSpan(ContextWithTrace(ctx, trace), trace.Root())
		sp := SpanFromContext(c).StartChild("fetch")
		if out := TraceFromContext(c).TraceParent(sp); out != "" {
			t.Fatalf("nil trace rendered traceparent %q", out)
		}
		sp.End()
		trace.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled propagation path allocates %.1f times per request, want 0", allocs)
	}
}

func BenchmarkObsTraceParentParse(b *testing.B) {
	header := "00-00000000000000000123456789abcdef-00000000000000a7-01"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseTraceParent(header); err != nil {
			b.Fatal(err)
		}
	}
}
