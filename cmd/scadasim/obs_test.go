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

// TestMetricsReport runs one simulation with -metrics and checks the
// run report records the simulate phase and both operational states.
func TestMetricsReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-config", "6+6+6", "-scenario", "both", "-metrics", path}); err != nil {
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
	if rep.Command != "scadasim" || rep.Schema != obs.ReportSchema {
		t.Fatalf("report header = %q / %q", rep.Schema, rep.Command)
	}
	if h := rep.Histogram["cli.simulate_ns"]; h.Count != 1 {
		t.Errorf("cli.simulate_ns count = %d, want 1", h.Count)
	}
	sim, ok := rep.Results["simulation"].(map[string]any)
	if !ok {
		t.Fatalf("results.simulation = %#v", rep.Results["simulation"])
	}
	for _, key := range []string{"config", "scenario", "analytical_state", "measured_state"} {
		if _, ok := sim[key].(string); !ok {
			t.Errorf("results.simulation[%q] = %#v, want string", key, sim[key])
		}
	}
}
