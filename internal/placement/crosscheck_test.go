package placement

// Cross-checks of the matrix-backed parallel search against the plain
// sequential reference searches in internal/oracle: identical ranking,
// scores, and profiles.

import (
	"runtime"
	"testing"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/oracle"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// candidateIDs lists the request inventory's control-site candidates in
// inventory order: the universe the oracle searches enumerate.
func candidateIDs(req Request) []string {
	var ids []string
	for _, a := range req.Inventory.ControlSiteCandidates() {
		ids = append(ids, a.ID)
	}
	return ids
}

// rankPlaced scores the oracle's placements with the request's
// objective and ranks them, so they compare directly against a
// production search result.
func rankPlaced(req Request, placed []oracle.Placed) []Candidate {
	req.setDefaults()
	out := make([]Candidate, len(placed))
	for i, p := range placed {
		o := analysis.Outcome{Config: p.Config, Scenario: req.Scenario, Profile: p.Profile}
		out[i] = Candidate{Placement: p.Placement, Score: req.Objective(o), Outcome: o}
	}
	Rank(out)
	return out
}

// sequentialPairs is the oracle counterpart of SearchPairs(req).
func sequentialPairs(t *testing.T, req Request) []Candidate {
	t.Helper()
	req.setDefaults()
	placed, err := oracle.SearchPairsSequential(req.Ensemble, req.Primary, candidateIDs(req), req.Build, req.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	return rankPlaced(req, placed)
}

func sameCandidates(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Placement != want[i].Placement {
			t.Errorf("%s rank %d: placement %+v, want %+v", label, i, got[i].Placement, want[i].Placement)
		}
		if got[i].Score != want[i].Score {
			t.Errorf("%s rank %d: score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
		for _, s := range opstate.States() {
			if got[i].Outcome.Profile.Count(s) != want[i].Outcome.Profile.Count(s) {
				t.Errorf("%s rank %d: count(%v) = %d, want %d", label, i, s,
					got[i].Outcome.Profile.Count(s), want[i].Outcome.Profile.Count(s))
			}
		}
	}
}

func TestSearchPairsMatchesSequential(t *testing.T) {
	e, inv := fixture(t)
	for _, scenario := range threat.Scenarios() {
		base := Request{
			Ensemble:  e,
			Inventory: inv,
			Primary:   "p",
			Scenario:  scenario,
		}
		want := sequentialPairs(t, base)
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			req := base
			req.Workers = workers
			got, err := SearchPairs(req)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, scenario.String(), got, want)
		}
	}
}

// TestSearchPairsKernelMatchesEvaluator pins the table kernel that
// scores every candidate of a pair search against the greedy attacker
// the sequential walk asks afresh for every realization: for the
// default symmetric "6+6+6" family and for a "6-6" primary-backup
// family, both under the availability-weighted objective, the two give
// identical rankings, scores, and profiles — the kernel is an
// optimization, never a semantic change.
func TestSearchPairsKernelMatchesEvaluator(t *testing.T) {
	e, inv := fixture(t)
	families := map[string]func(topology.Placement) topology.Config{
		"6+6+6": nil,
		"6-6": func(p topology.Placement) topology.Config {
			return topology.NewConfig66(p.Primary, p.Second)
		},
	}
	for name, build := range families {
		for _, scenario := range threat.Scenarios() {
			req := Request{
				Ensemble:  e,
				Inventory: inv,
				Primary:   "p",
				Scenario:  scenario,
				Objective: AvailabilityWeighted,
				Build:     build,
			}
			want := sequentialPairs(t, req)
			got, err := SearchPairs(req)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, name+"/"+scenario.String()+"/kernel-vs-sequential", got, want)
		}
	}
}

func TestSearchSecondSiteMatchesSequential(t *testing.T) {
	e, inv := fixture(t)
	base := Request{
		Ensemble:  e,
		Inventory: inv,
		Primary:   "p",
		Scenario:  threat.HurricaneIntrusionIsolation,
		Objective: AvailabilityWeighted,
		Build: func(p topology.Placement) topology.Config {
			return topology.NewConfig22(p.Primary, p.Second)
		},
	}
	base.setDefaults()
	placed, err := oracle.SearchSecondSiteSequential(e, base.Primary, "dc", candidateIDs(base), base.Build, base.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	want := rankPlaced(base, placed)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		req := base
		req.Workers = workers
		got, err := SearchSecondSite(req, "dc")
		if err != nil {
			t.Fatal(err)
		}
		sameCandidates(t, "second-site", got, want)
	}
}
