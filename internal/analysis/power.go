package analysis

// Attacker-power sweep: the §VII extension. Instead of the binary
// worst-case attacker, sweep the per-attempt success probability from
// 0 (hurricane only) to 1 (the paper's worst case) and trace how each
// configuration's operational profile degrades.

import (
	"errors"
	"fmt"
	"math/rand"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// PowerPoint is one point of an attacker-power sweep.
type PowerPoint struct {
	// Success is the per-attempt success probability (applied to both
	// intrusion and isolation attempts).
	Success float64
	// Profile aggregates outcomes over realizations and attack trials.
	Profile *stats.Profile
}

// PowerSweepRequest parameterizes a sweep.
type PowerSweepRequest struct {
	// Ensemble is the disaster realization ensemble.
	Ensemble DisasterEnsemble
	// Config is the configuration under study.
	Config topology.Config
	// Capability is the attacker's attempt budget.
	Capability threat.Capability
	// Successes are the probability grid points (each in [0, 1]).
	Successes []float64
	// TrialsPerRealization is how many attack-randomness draws to run
	// per hurricane realization (default 1).
	TrialsPerRealization int
	// Seed drives the attack randomness.
	Seed int64
	// Workers bounds parallelism across sweep points (0 = GOMAXPROCS).
	Workers int
}

func (r PowerSweepRequest) validate() error {
	switch {
	case r.Ensemble == nil:
		return errors.New("analysis: nil ensemble")
	case len(r.Successes) == 0:
		return errors.New("analysis: no sweep points")
	case r.TrialsPerRealization < 0:
		return errors.New("analysis: negative trials")
	case r.Workers < 0:
		return errors.New("analysis: negative workers")
	}
	for _, s := range r.Successes {
		if s < 0 || s > 1 {
			return fmt.Errorf("analysis: success probability %v out of [0, 1]", s)
		}
	}
	return r.Config.Validate()
}

// deterministicPower reports whether the probabilistic attacker's
// outcome is independent of the randomness draws: with both success
// probabilities at exactly 0 or 1, every attempt deterministically
// fails or lands.
func deterministicPower(p attack.Power) bool {
	return (p.IntrusionSuccess == 0 || p.IntrusionSuccess == 1) &&
		(p.IsolationSuccess == 0 || p.IsolationSuccess == 1)
}

// pointSeed derives the attack-randomness seed of (point, realization)
// so points are independent and runs reproducible regardless of worker
// scheduling.
func pointSeed(base int64, point, realization int) int64 {
	return base + int64(point)*1e9 + int64(realization)
}

// RunPowerSweep evaluates the configuration across the success grid,
// running sweep points in parallel against a failure matrix compiled
// and deduplicated once. The deterministic endpoints (success 0 and 1)
// evaluate each distinct flood pattern once, weighted by multiplicity;
// interior points walk every realization, because their outcomes
// depend on the attack randomness, which is seeded per (point,
// realization) so results are independent of scheduling.
func RunPowerSweep(req PowerSweepRequest) ([]PowerPoint, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	defer obs.Default().StartSpan("analysis.power_sweep_ns").End()
	obs.Default().Counter("analysis.power_points").Add(int64(len(req.Successes)))
	trials := req.TrialsPerRealization
	if trials == 0 {
		trials = 1
	}
	m, err := engine.NewFailureMatrix(req.Ensemble, siteAssets(req.Config))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", req.Config.Name, err)
	}
	cols, err := m.Columns(siteAssets(req.Config))
	if err != nil {
		return nil, err
	}
	cm := engine.Compress(m, req.Workers)
	out := make([]PowerPoint, len(req.Successes))
	err = engine.ForEach(req.Workers, len(req.Successes), func(pi int) error {
		success := req.Successes[pi]
		power := attack.Power{
			Capability:       req.Capability,
			IntrusionSuccess: success,
			IsolationSuccess: success,
		}
		profile := stats.NewProfile()
		if deterministicPower(power) {
			// At the grid endpoints every planned attempt succeeds (or
			// fails) regardless of the randomness draws, so the outcome
			// is a pure function of the flood pattern: evaluate each
			// distinct pattern once, weighted by multiplicity × trials.
			obs.Default().Counter("analysis.power_points_compressed").Add(1)
			rng := rand.New(rand.NewSource(pointSeed(req.Seed, pi, 0)))
			flooded := make([]bool, 0, len(cols))
			for i := 0; i < cm.DistinctRows(); i++ {
				flooded = cm.Gather(flooded[:0], i, cols)
				res, err := attack.WorstCaseProbabilistic(req.Config, flooded, power, rng)
				if err != nil {
					return err
				}
				profile.AddN(res.State, cm.Weight(i)*trials)
			}
			out[pi] = PowerPoint{Success: success, Profile: profile}
			return nil
		}
		flooded := make([]bool, 0, len(cols))
		for r := 0; r < m.Rows(); r++ {
			flooded = m.Gather(flooded[:0], r, cols)
			p, err := attack.ProfileUnderPower(req.Config, flooded, power, trials, pointSeed(req.Seed, pi, r))
			if err != nil {
				return err
			}
			profile.Merge(p)
		}
		out[pi] = PowerPoint{Success: success, Profile: profile}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
