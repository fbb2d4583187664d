package main

import (
	"strings"
	"testing"
)

// lint runs the checker over one synthetic source file and returns the
// issue messages.
func lint(t *testing.T, src string) []string {
	t.Helper()
	c := newChecker()
	if err := c.file("lint_test_input.go", "package p\n\n"+src); err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c.issues
}

func TestConformingRegistrationsPass(t *testing.T) {
	issues := lint(t, `
func f(rec R, name string) {
	rec.Counter("serve.cache_hits")
	rec.Gauge("serve.inflight")
	rec.Histogram("hazard.generate.track_ns")
	rec.StartSpan("serve.compile_ns").End()
	rec.StartSpan("engine.compress_ns")
	rec.Histogram("engine.compress_ns") // a span's histogram, resolved directly
	rec.Histogram("engine.tasks_per_worker")
	rec.Counter("serve.requests." + name)
	rec.Histogram("serve.latency_ns." + name + "." + name + "xx")
	rec.Gauge("runtime.gc_pause_total_ns") // _total mid-name is fine
	rec.Histogram(name)                    // dynamic: not provable, not flagged
	rec.StartSpan(name)                    // likewise
}`)
	if len(issues) != 0 {
		t.Fatalf("conforming registrations flagged: %v", issues)
	}
}

func TestBadNamesFlagged(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{`func f(rec R) { rec.Counter("nodots") }`, "dotted lowercase"},
		{`func f(rec R) { rec.Counter("Serve.cache_hits") }`, "dotted lowercase"},
		{`func f(rec R) { rec.Counter("serve.Cache_hits") }`, "dotted lowercase"},
		{`func f(rec R) { rec.Counter("serve..hits") }`, "dotted lowercase"},
		{`func f(rec R) { rec.Counter("serve.requests_total") }`, "_total"},
		{`func f(rec R, n string) { rec.Counter("serve.requests" + n) }`, "ending in"},
		{`func f(rec R) { rec.StartSpan("serve.compile").End() }`, "must end in _ns"},
		{`func f(rec R) { rec.StartSpan("Serve.compile_ns") }`, "dotted lowercase"},
	} {
		issues := lint(t, tc.src)
		if len(issues) != 1 || !strings.Contains(issues[0], tc.want) {
			t.Errorf("%s: issues = %v, want one containing %q", tc.src, issues, tc.want)
		}
	}
}

func TestKindConflictFlagged(t *testing.T) {
	for _, src := range []string{`
func f(rec R) {
	rec.Counter("serve.cache_hits")
	rec.Gauge("serve.cache_hits")
}`, `
func f(rec R) {
	rec.Counter("serve.compile_ns")
	rec.StartSpan("serve.compile_ns").End()
}`} {
		issues := lint(t, src)
		if len(issues) != 1 || !strings.Contains(issues[0], "one name, one kind") {
			t.Fatalf("kind conflict issues = %v", issues)
		}
	}
	// Same name, same kind, is a legitimate re-registration.
	if issues := lint(t, `
func f(rec R) {
	rec.Counter("serve.cache_hits")
	rec.Counter("serve.cache_hits")
}`); len(issues) != 0 {
		t.Fatalf("same-kind re-registration flagged: %v", issues)
	}
}

// TestRepoConforms runs the lint over the real tree — the same gate
// make verify applies.
func TestRepoConforms(t *testing.T) {
	issues, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("repo has nonconforming registrations:\n%s", strings.Join(issues, "\n"))
	}
}
