//go:build race

package racetest

// Enabled reports that the race detector is on.
const Enabled = true
