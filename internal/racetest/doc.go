// Package racetest reports whether the binary was built with the race
// detector, for tests whose assertions mean nothing under it. The race
// detector makes sync.Pool drop items at random, so exact allocation
// counts (testing.AllocsPerRun) vary from run to run; those assertions
// skip when Enabled is set and keep running in the ordinary test build.
package racetest
