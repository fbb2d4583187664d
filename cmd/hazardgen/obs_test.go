package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

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

// TestMetricsReport generates a small ensemble with -metrics and checks
// the run report records the generation phase and realization count.
func TestMetricsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-realizations", "20", "-metrics", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("run report is not valid JSON: %v", err)
	}
	if rep.Command != "hazardgen" || rep.Schema != obs.ReportSchema {
		t.Fatalf("report header = %q / %q", rep.Schema, rep.Command)
	}
	if h := rep.Histogram["cli.generate_ensemble_ns"]; h.Count != 1 {
		t.Errorf("cli.generate_ensemble_ns count = %d, want 1", h.Count)
	}
	if got, ok := rep.Results["realizations"].(float64); !ok || got != 20 {
		t.Errorf("results.realizations = %v, want 20", rep.Results["realizations"])
	}
}
