package oracle

import (
	"errors"
	"fmt"

	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Placed is one placement evaluated by a reference search: the
// configuration build produced for it and its outcome profile. Callers
// score and rank these themselves (placement tests use the request's
// objective and placement.Rank).
type Placed struct {
	Placement topology.Placement
	Config    topology.Config
	Profile   *stats.Profile
}

// SearchPairsSequential evaluates every ordered (second site, data
// center) pair of distinct candidates other than primary, in candidate
// order, re-running the full ensemble through RunSequential for each.
func SearchPairsSequential(e Ensemble, primary string, candidates []string, build func(topology.Placement) topology.Config, scenario threat.Scenario) ([]Placed, error) {
	var placements []topology.Placement
	for _, second := range candidates {
		if second == primary {
			continue
		}
		for _, dc := range candidates {
			if dc == primary || dc == second {
				continue
			}
			placements = append(placements, topology.Placement{Primary: primary, Second: second, DataCenter: dc})
		}
	}
	return searchSequential(e, placements, build, scenario)
}

// SearchSecondSiteSequential is SearchPairsSequential with the data
// center fixed: every candidate other than primary and dataCenter is
// tried as the second site.
func SearchSecondSiteSequential(e Ensemble, primary, dataCenter string, candidates []string, build func(topology.Placement) topology.Config, scenario threat.Scenario) ([]Placed, error) {
	var placements []topology.Placement
	for _, second := range candidates {
		if second == primary || second == dataCenter {
			continue
		}
		placements = append(placements, topology.Placement{Primary: primary, Second: second, DataCenter: dataCenter})
	}
	return searchSequential(e, placements, build, scenario)
}

func searchSequential(e Ensemble, placements []topology.Placement, build func(topology.Placement) topology.Config, scenario threat.Scenario) ([]Placed, error) {
	if len(placements) == 0 {
		return nil, errors.New("oracle: no candidate placements")
	}
	out := make([]Placed, 0, len(placements))
	for _, p := range placements {
		cfg := build(p)
		profile, err := RunSequential(e, cfg, scenario)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s/%s: %w", p.Second, p.DataCenter, err)
		}
		out = append(out, Placed{Placement: p, Config: cfg, Profile: profile})
	}
	return out, nil
}
