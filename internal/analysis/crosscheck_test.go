package analysis

// Cross-checks of the engine-backed parallel paths against the plain
// sequential reference implementations in internal/oracle: identical
// inputs must produce bit-identical outcome profiles for every seed and
// worker count.

import (
	"math/rand"
	"runtime"
	"testing"

	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/oracle"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// randomEnsemble builds a pseudo-random depth ensemble over the given
// assets: each (realization, asset) cell floods with probability ~0.3.
func randomEnsemble(t *testing.T, seed int64, realizations int, assetIDs []string) *hazard.Ensemble {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	rows := make([][]float64, realizations)
	for r := range rows {
		rows[r] = make([]float64, len(assetIDs))
		for i := range rows[r] {
			if rng.Float64() < 0.3 {
				rows[r][i] = 1.0
			}
		}
	}
	e, err := hazard.NewEnsembleFromDepths(cfg, assetIDs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func crosscheckWorkerCounts() []int {
	return []int{1, 2, runtime.NumCPU()}
}

func sameProfile(t *testing.T, label string, got Outcome, want *stats.Profile) {
	t.Helper()
	if got.Profile.Total() != want.Total() {
		t.Errorf("%s: total %d != %d", label, got.Profile.Total(), want.Total())
		return
	}
	for _, s := range opstate.States() {
		if got.Profile.Count(s) != want.Count(s) {
			t.Errorf("%s: count(%v) = %d, want %d", label, s, got.Profile.Count(s), want.Count(s))
		}
	}
}

func TestRunMatchesSequential(t *testing.T) {
	assets := []string{"p", "s", "d"}
	configs := []topology.Config{
		topology.NewConfig2("p"),
		topology.NewConfig22("p", "s"),
		topology.NewConfig6("p"),
		topology.NewConfig66("p", "s"),
		topology.NewConfig666("p", "s", "d"),
	}
	for _, seed := range []int64{1, 2, 3} {
		e := randomEnsemble(t, seed, 250, assets)
		for _, cfg := range configs {
			for _, sc := range threat.Scenarios() {
				want, err := oracle.RunSequential(e, cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range crosscheckWorkerCounts() {
					got, err := RunOpt(e, cfg, sc, Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					sameProfile(t, cfg.Name+"/"+sc.String(), got, want)
				}
			}
		}
	}
}

func TestRunMatrixMatchesSequential(t *testing.T) {
	assets := []string{"p", "s", "d"}
	configs := []topology.Config{
		topology.NewConfig22("p", "s"),
		topology.NewConfig666("p", "s", "d"),
	}
	for _, seed := range []int64{7, 8} {
		e := randomEnsemble(t, seed, 200, assets)
		want, err := oracle.RunMatrixSequential(e, configs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range crosscheckWorkerCounts() {
			got, err := RunMatrixOpt(e, configs, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d scenarios, want %d", workers, len(got), len(want))
			}
			for sc := range want {
				for i := range want[sc] {
					sameProfile(t, sc.String()+"/"+configs[i].Name, got[sc][i], want[sc][i])
				}
			}
		}
	}
}

func TestRunConfigsMatchesSequential(t *testing.T) {
	assets := []string{"p", "s", "d"}
	configs := []topology.Config{
		topology.NewConfig2("p"),
		topology.NewConfig66("p", "s"),
		topology.NewConfig666("p", "s", "d"),
	}
	e := randomEnsemble(t, 11, 300, assets)
	want, err := oracle.RunConfigsSequential(e, configs, threat.HurricaneIntrusionIsolation)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range crosscheckWorkerCounts() {
		got, err := RunConfigsOpt(e, configs, threat.HurricaneIntrusionIsolation, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			sameProfile(t, configs[i].Name, got[i], want[i])
		}
	}
}

func TestPowerSweepMatchesSequential(t *testing.T) {
	assets := []string{"p", "s"}
	for _, seed := range []int64{21, 22} {
		e := randomEnsemble(t, seed, 60, assets)
		base := PowerSweepRequest{
			Ensemble:             e,
			Config:               topology.NewConfig66("p", "s"),
			Capability:           threat.HurricaneIntrusionIsolation.Capability(),
			Successes:            []float64{0, 0.25, 0.5, 0.75, 1},
			TrialsPerRealization: 3,
			Seed:                 seed,
		}
		want, err := oracle.RunPowerSweepSequential(e, base.Config, base.Capability,
			base.Successes, base.TrialsPerRealization, base.Seed)
		if err != nil {
			t.Fatal(err)
		}
		// The grid includes both deterministic endpoints (0 and 1), so
		// this pins the compressed endpoint path as well as the
		// per-realization interior points to the sequential reference.
		for _, workers := range crosscheckWorkerCounts() {
			req := base
			req.Workers = workers
			got, err := RunPowerSweep(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Success != base.Successes[i] {
					t.Errorf("workers=%d point %d: success %v != %v", workers, i, got[i].Success, base.Successes[i])
				}
				for _, s := range opstate.States() {
					if got[i].Profile.Count(s) != want[i].Count(s) {
						t.Errorf("workers=%d point %d: count(%v) = %d, want %d",
							workers, i, s, got[i].Profile.Count(s), want[i].Count(s))
					}
				}
			}
		}
	}
}

// TestEvaluateAllFiguresMatchesPerFigure: the flattened parallel
// all-figures path must equal figure-by-figure evaluation.
func TestEvaluateAllFiguresMatchesPerFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full case study in -short mode")
	}
	cs, err := NewOahuCaseStudy(60)
	if err != nil {
		t.Fatal(err)
	}
	all, err := cs.EvaluateAllFigures()
	if err != nil {
		t.Fatal(err)
	}
	figs := PaperFigures()
	if len(all) != len(figs) {
		t.Fatalf("%d figure results, want %d", len(all), len(figs))
	}
	for fi, f := range figs {
		single, err := cs.EvaluateFigure(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(all[fi].Outcomes) != len(single.Outcomes) {
			t.Fatalf("figure %d: %d outcomes, want %d", f.ID, len(all[fi].Outcomes), len(single.Outcomes))
		}
		for i := range single.Outcomes {
			sameProfile(t, single.Outcomes[i].Config.Name, all[fi].Outcomes[i], single.Outcomes[i].Profile)
		}
		// And both must match the per-realization reference.
		configs, err := topology.StandardConfigs(f.Placement)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.RunConfigsSequential(cs.Ensemble(), configs, f.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			sameProfile(t, "oracle/"+configs[i].Name, all[fi].Outcomes[i], want[i])
		}
	}
}
