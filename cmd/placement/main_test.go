package main

import "testing"

func TestRunModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	modes := [][]string{
		{"-realizations", "50", "-scenario", "hurricane"},
		{"-realizations", "50", "-scenario", "both", "-pairs", "-top", "3"},
		{"-realizations", "50", "-scenario", "both", "-k", "2", "-exact"},
		{"-realizations", "80", "-k", "3", "-synthetic", "24", "-objective", "weighted"},
	}
	for _, args := range modes {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Error("bad scenario should fail")
	}
	if err := run([]string{"-k", "2", "-objective", "pink"}); err == nil {
		t.Error("bad objective should fail")
	}
	if err := run([]string{"-realizations", "50", "-k", "2", "-synthetic", "24", "-max-candidates", "8"}); err == nil {
		t.Error("max-candidates overflow should fail")
	}
	if err := run([]string{"-compress=false"}); err == nil {
		t.Error("removed -compress flag should fail")
	}
}
