package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const oraclePath = "compoundthreat/internal/oracle"

// oracleDeps is every module package the oracles may import: the
// attacker, the state and profile types and the configuration model,
// none of which depends on the engine paths the oracles check.
var oracleDeps = map[string]bool{
	"compoundthreat/internal/attack":   true,
	"compoundthreat/internal/opstate":  true,
	"compoundthreat/internal/stats":    true,
	"compoundthreat/internal/threat":   true,
	"compoundthreat/internal/topology": true,
}

// moduleRoot walks up from the package directory to the directory
// holding the root go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module compoundthreat\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no compoundthreat go.mod above the test directory")
		}
		dir = parent
	}
}

// TestImportBoundary keeps the oracles out of production code by
// construction: no non-test Go file in the module (nested fleetbench
// module included) may import this package, and this package may import
// only oracleDeps from the module.
func TestImportBoundary(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		inOracle := filepath.ToSlash(filepath.Dir(rel)) == "internal/oracle"
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			switch {
			case !inOracle && p == oraclePath:
				t.Errorf("%s: production code imports %s", rel, oraclePath)
			case inOracle && strings.HasPrefix(p, "compoundthreat/") && !oracleDeps[p]:
				t.Errorf("%s: oracle imports %s; allowed module imports are attack, opstate, stats, threat, topology", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d non-test Go files under %s; the walk missed the module", files, root)
	}
}
