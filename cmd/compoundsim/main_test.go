package main

import "testing"

// TestRunModes exercises every CLI mode end to end on a small
// ensemble.
func TestRunModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests in -short mode")
	}
	modes := [][]string{
		{"-realizations", "50", "-fig", "6"},
		{"-realizations", "50", "-fig", "10", "-csv"},
		{"-realizations", "50", "-table1", "-rates", "-fig", "7"},
		{"-realizations", "50", "-summary"},
		{"-realizations", "50", "-downtime"},
		{"-realizations", "50", "-extended"},
		{"-realizations", "50", "-fragility", "0.5"},
		{"-realizations", "50", "-power", "6-6"},
		{"-realizations", "200", "-quake"},
	}
	for _, args := range modes {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	bad := [][]string{
		{"-fig", "3"},
		{"-power", "nope"},
		{"-realizations", "0"},
		{"-compress=false"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
