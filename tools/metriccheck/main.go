// Command metriccheck lints obs instrument registrations: every
// Counter/Gauge/Histogram call with a literal name (or a literal
// concatenation prefix) is checked against the repo's naming
// conventions, so a typo'd or colliding metric fails CI instead of
// silently forking a family on the dashboards. A StartSpan call
// registers the histogram its span times into, so span names are
// checked as Histogram names. (Trace spans are opened with StartChild
// in production code; Trace.StartSpan shares the method name, so a
// literal passed to it would be linted too.)
//
// Rules:
//
//   - Full names are dotted lowercase: "pkg.noun_verb" (at least one
//     dot; segments are [a-z0-9_], the leading segment [a-z][a-z0-9]*).
//   - No "_total" suffix: the Prometheus exposition appends _total to
//     counters itself, so a literal one would render as _total_total.
//   - Concatenation prefixes ("serve.requests." + name) must end with
//     a dot and be well-formed up to it.
//   - Spans carry their unit: a full literal name passed to StartSpan
//     must end in "_ns", as every duration histogram does.
//   - One name, one kind: registering the same literal name as two
//     different instrument kinds is an error — the exposition would
//     emit conflicting TYPE lines for one family.
//
// Usage:
//
//	go run ./tools/metriccheck ./...
//
// The argument is a root directory (default "."); _test.go files and
// testdata/vendor trees are skipped. Non-literal names are ignored —
// the lint gates what it can prove, the obs runtime handles the rest.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var (
	fullNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)
	prefixRe   = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)*\.$`)
)

// instrumentKinds maps the obs registration methods whose first
// argument names a metric family to the instrument kind they register.
var instrumentKinds = map[string]string{
	"Counter":   "Counter",
	"Gauge":     "Gauge",
	"Histogram": "Histogram",
	"StartSpan": "Histogram",
}

// registration remembers where a literal name was first registered and
// as what kind, for the one-name-one-kind rule.
type registration struct {
	kind string
	pos  string
}

// checker accumulates issues across files so duplicate detection works
// repo-wide.
type checker struct {
	fset   *token.FileSet
	seen   map[string]registration
	issues []string
}

func newChecker() *checker {
	return &checker{fset: token.NewFileSet(), seen: map[string]registration{}}
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.issues = append(c.issues, fmt.Sprintf("%s: %s", c.fset.Position(pos), fmt.Sprintf(format, args...)))
}

// file parses one source file and checks every instrument registration
// in it. src may be nil to read from disk (parser.ParseFile semantics).
func (c *checker) file(filename string, src any) error {
	f, err := parser.ParseFile(c.fset, filename, src, 0)
	if err != nil {
		return err
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind, ok := instrumentKinds[sel.Sel.Name]
		if !ok {
			return true
		}
		name, prefix, ok := literalName(call.Args[0])
		if !ok {
			return true // dynamic name — nothing provable here
		}
		if prefix {
			if !prefixRe.MatchString(name) {
				c.errorf(call.Args[0].Pos(), "metric name prefix %q must be dotted lowercase ending in %q (e.g. \"serve.requests.\")", name, ".")
			}
			return true
		}
		if !fullNameRe.MatchString(name) {
			c.errorf(call.Args[0].Pos(), "metric name %q must be dotted lowercase %q form (e.g. \"serve.cache_hits\")", name, "pkg.noun_verb")
			return true
		}
		if strings.HasSuffix(name, "_total") {
			c.errorf(call.Args[0].Pos(), "metric name %q must not end in _total: the Prometheus exposition appends _total to counters", name)
		}
		if sel.Sel.Name == "StartSpan" && !strings.HasSuffix(name, "_ns") {
			c.errorf(call.Args[0].Pos(), "span name %q must end in _ns: spans record nanosecond histograms", name)
		}
		if prev, dup := c.seen[name]; dup && prev.kind != kind {
			c.errorf(call.Args[0].Pos(), "metric %q registered as %s here but as %s at %s — one name, one kind", name, kind, prev.kind, prev.pos)
		} else if !dup {
			c.seen[name] = registration{kind: kind, pos: c.fset.Position(call.Args[0].Pos()).String()}
		}
		return true
	})
	return nil
}

// literalName extracts the provable part of a registration's name
// argument: a plain string literal (full name), or the leftmost string
// literal of a + concatenation (a prefix). ok is false for fully
// dynamic names.
func literalName(e ast.Expr) (name string, isPrefix, ok bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false, false
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return "", false, false
		}
		return s, false, true
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false, false
		}
		// Leftmost operand of a left-associative + chain.
		s, _, ok := literalName(v.X)
		return s, true, ok
	case *ast.ParenExpr:
		return literalName(v.X)
	}
	return "", false, false
}

// run walks root, checking every non-test Go file outside testdata and
// vendor trees, and returns the accumulated issues.
func run(root string) ([]string, error) {
	c := newChecker()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		return c.file(path, nil)
	})
	return c.issues, err
}

func main() {
	root := "."
	if args := os.Args[1:]; len(args) > 0 {
		// Accept the conventional "./..." spelling for the whole tree.
		root = strings.TrimSuffix(args[0], "...")
		if root == "" || root == "./" {
			root = "."
		}
	}
	issues, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriccheck:", err)
		os.Exit(1)
	}
	for _, msg := range issues {
		fmt.Fprintln(os.Stderr, msg)
	}
	if len(issues) > 0 {
		fmt.Fprintf(os.Stderr, "metriccheck: %d naming violations\n", len(issues))
		os.Exit(1)
	}
	fmt.Println("metriccheck: all instrument registrations conform")
}
