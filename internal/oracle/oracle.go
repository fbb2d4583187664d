// Package oracle holds the plain sequential reference implementations
// that the production analysis and placement paths are cross-checked
// against in tests. Every function here walks every realization and
// asks the greedy attacker (attack.WorstCase, or the probabilistic
// attacker for the power sweep) for the outcome, with per-call
// allocations and no failure matrix, row deduplication, memoization or
// parallelism — so a bit-identity test compares the optimized paths
// against an algorithm that shares none of their machinery.
//
// Of this module's packages it imports only attack, opstate, stats,
// threat and topology — never analysis, placement or engine — so both
// in-package and external test packages of those can use it without an
// import cycle, and no production code imports it. TestImportBoundary
// enforces both rules.
package oracle

import (
	"errors"
	"fmt"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Ensemble is the view of a realization ensemble the oracles read:
// per realization, which of the given assets the disaster took out.
// hazard.Ensemble, seismic.Ensemble and placement.SyntheticEnsemble
// all satisfy it.
type Ensemble interface {
	// Size returns the number of realizations.
	Size() int
	// FailureVector returns, for realization r, the failed flags for
	// the given asset IDs in order.
	FailureVector(r int, assetIDs []string) ([]bool, error)
}

// siteAssets returns the configuration's site asset IDs in order.
func siteAssets(cfg topology.Config) []string {
	out := make([]string, len(cfg.Sites))
	for i, s := range cfg.Sites {
		out[i] = s.AssetID
	}
	return out
}

// RunSequential evaluates one configuration under one scenario: a plain
// realization loop applying the worst-case attack to each realization's
// flooded sites.
func RunSequential(e Ensemble, cfg topology.Config, scenario threat.Scenario) (*stats.Profile, error) {
	if e == nil {
		return nil, errors.New("oracle: nil ensemble")
	}
	if !scenario.Valid() {
		return nil, fmt.Errorf("oracle: invalid scenario %d", int(scenario))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assets := siteAssets(cfg)
	capability := scenario.Capability()
	profile := stats.NewProfile()
	for r := 0; r < e.Size(); r++ {
		flooded, err := e.FailureVector(r, assets)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s realization %d: %w", cfg.Name, r, err)
		}
		res, err := attack.WorstCase(cfg, flooded, capability)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s realization %d: %w", cfg.Name, r, err)
		}
		profile.Add(res.State)
	}
	return profile, nil
}

// RunConfigsSequential runs RunSequential for each configuration in
// order.
func RunConfigsSequential(e Ensemble, configs []topology.Config, scenario threat.Scenario) ([]*stats.Profile, error) {
	if len(configs) == 0 {
		return nil, errors.New("oracle: no configurations")
	}
	out := make([]*stats.Profile, 0, len(configs))
	for _, cfg := range configs {
		p, err := RunSequential(e, cfg, scenario)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// RunMatrixSequential runs RunConfigsSequential under every threat
// scenario, keyed by scenario.
func RunMatrixSequential(e Ensemble, configs []topology.Config) (map[threat.Scenario][]*stats.Profile, error) {
	out := make(map[threat.Scenario][]*stats.Profile, len(threat.Scenarios()))
	for _, sc := range threat.Scenarios() {
		res, err := RunConfigsSequential(e, configs, sc)
		if err != nil {
			return nil, err
		}
		out[sc] = res
	}
	return out, nil
}

// pointSeed is the attack-randomness seed of sweep point pi at
// realization r: the derivation the production power sweep must share
// for its interior points to be bit-identical to the oracle.
func pointSeed(base int64, pi, r int) int64 {
	return base + int64(pi)*1e9 + int64(r)
}

// RunPowerSweepSequential sweeps the per-attempt success probability
// over successes for one configuration: a nested loop over points and
// realizations, running trials probabilistic attacks per realization
// seeded per (point, realization). It returns one profile
// per point, in grid order.
func RunPowerSweepSequential(e Ensemble, cfg topology.Config, capability threat.Capability, successes []float64, trials int, seed int64) ([]*stats.Profile, error) {
	if e == nil {
		return nil, errors.New("oracle: nil ensemble")
	}
	if trials < 1 {
		return nil, fmt.Errorf("oracle: %d trials per realization, want at least 1", trials)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	assets := siteAssets(cfg)
	out := make([]*stats.Profile, 0, len(successes))
	for pi, success := range successes {
		power := attack.Power{
			Capability:       capability,
			IntrusionSuccess: success,
			IsolationSuccess: success,
		}
		profile := stats.NewProfile()
		for r := 0; r < e.Size(); r++ {
			flooded, err := e.FailureVector(r, assets)
			if err != nil {
				return nil, err
			}
			p, err := attack.ProfileUnderPower(cfg, flooded, power, trials, pointSeed(seed, pi, r))
			if err != nil {
				return nil, err
			}
			profile.Merge(p)
		}
		out = append(out, profile)
	}
	return out, nil
}
