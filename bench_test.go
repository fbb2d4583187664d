package compoundthreat

// Benchmark harness: one benchmark per paper table/figure plus
// ablations for the design choices called out in DESIGN.md. Each
// figure benchmark regenerates the corresponding result and reports
// the probability masses as custom metrics (fractions in [0, 1]), so
// `go test -bench .` reproduces the paper's numbers alongside the cost
// of computing them.
//
// Paper-vs-measured values are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/attack"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/oracle"
	"compoundthreat/internal/scada"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

var (
	benchOnce sync.Once
	benchCS   *analysis.CaseStudy
	benchErr  error
)

// benchCaseStudy generates the 1000-realization Oahu ensemble once per
// benchmark binary (its cost is reported by BenchmarkEnsembleGeneration).
func benchCaseStudy(b *testing.B) *analysis.CaseStudy {
	b.Helper()
	benchOnce.Do(func() {
		benchCS, benchErr = analysis.NewOahuCaseStudy(0)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCS
}

// benchFigure evaluates one paper figure per iteration and reports the
// headline probabilities.
func benchFigure(b *testing.B, id int) {
	cs := benchCaseStudy(b)
	fig, err := analysis.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res analysis.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = cs.EvaluateFigure(fig)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, o := range res.Outcomes {
		for _, s := range opstate.States() {
			if p := o.Profile.Probability(s); p > 0 {
				b.ReportMetric(p, fmt.Sprintf("%s_%s", sanitize(o.Config.Name), s))
			}
		}
	}
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == '+' {
			r = 'p'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkFig6 reproduces Figure 6: hurricane only, Honolulu + Waiau
// + DRFortress. Paper: all five configurations 90.5% green / 9.5% red.
func BenchmarkFig6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFig7 reproduces Figure 7: hurricane + server intrusion,
// HWD. Paper: "2"/"2-2" 90.5% gray / 9.5% red; six-family unchanged.
func BenchmarkFig7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkFig8 reproduces Figure 8: hurricane + site isolation, HWD.
// Paper: "2"/"6" 100% red; "2-2"/"6-6" 90.5% orange; "6+6+6" unchanged.
func BenchmarkFig8(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFig9 reproduces Figure 9: hurricane + intrusion +
// isolation, HWD. Paper: "6-6" is the minimum survivable configuration
// (90.5% orange); "6+6+6" 90.5% green / 9.5% red.
func BenchmarkFig9(b *testing.B) { benchFigure(b, 9) }

// BenchmarkFig10 reproduces Figure 10: hurricane only, Honolulu + Kahe
// + DRFortress. Paper: "2-2"/"6-6" red mass converts to orange;
// "6+6+6" 100% green.
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10) }

// BenchmarkFig11 reproduces Figure 11: hurricane + server intrusion,
// HKD. Paper: "6-6" restores via Kahe; "6+6+6" 100% green.
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11) }

// benchFigureConfigs resolves one paper figure to its configuration
// family for the engine-vs-sequential comparison benchmarks.
func benchFigureConfigs(b *testing.B, id int) (*analysis.CaseStudy, []topology.Config, threat.Scenario) {
	cs := benchCaseStudy(b)
	fig, err := analysis.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	configs, err := topology.StandardConfigs(fig.Placement)
	if err != nil {
		b.Fatal(err)
	}
	return cs, configs, fig.Scenario
}

// BenchmarkFigure9Sequential is the pre-engine baseline: Figure 9 (the
// full compound threat) evaluated with the plain per-realization
// reference (oracle.RunConfigsSequential), exactly as the seed revision
// computed every figure.
func BenchmarkFigure9Sequential(b *testing.B) {
	cs, configs, scenario := benchFigureConfigs(b, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.RunConfigsSequential(cs.Ensemble(), configs, scenario); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Workers evaluates Figure 9 on the engine path at
// several worker bounds. Compare against BenchmarkFigure9Sequential
// for the speedup; the gain is dominated by the bit-packed matrix, row
// deduplication and per-flood-pattern memoization, so it holds even at
// workers=1. `make bench-check` gates it.
func BenchmarkFigure9Workers(b *testing.B) {
	cs, configs, scenario := benchFigureConfigs(b, 9)
	for _, workers := range []int{1, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := analysis.Options{Workers: workers}
				if _, err := analysis.RunConfigsOpt(cs.Ensemble(), configs, scenario, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigureAllSequential evaluates all six paper figures with
// the sequential reference (oracle.RunConfigsSequential).
func BenchmarkFigureAllSequential(b *testing.B) {
	cs := benchCaseStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fig := range analysis.PaperFigures() {
			configs, err := topology.StandardConfigs(fig.Placement)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := oracle.RunConfigsSequential(cs.Ensemble(), configs, fig.Scenario); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigureAllEngine evaluates all six paper figures through
// EvaluateAllFigures: flattened (figure, config) cells over one
// deduplicated failure matrix. `make bench-check` gates it.
func BenchmarkFigureAllEngine(b *testing.B) {
	cs := benchCaseStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateAllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureAllEngineMetrics is BenchmarkFigureAllEngine with a
// live metrics recorder enabled: the overhead of full instrumentation
// on the all-figures sweep. Compare against BenchmarkFigureAllEngine;
// BENCH_2.json records the measured gap (<5%).
func BenchmarkFigureAllEngineMetrics(b *testing.B) {
	cs := benchCaseStudy(b)
	obs.Enable(obs.New())
	b.Cleanup(func() { obs.Enable(nil) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateAllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI evaluates the Table I rules across every
// (configuration, site state, intrusion count) combination.
func BenchmarkTableI(b *testing.B) {
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary: "p", Second: "s", DataCenter: "d",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			n := len(cfg.Sites)
			for mask := 0; mask < 1<<n; mask++ {
				st := opstate.NewSystemState(n)
				for j := 0; j < n; j++ {
					st.Flooded[j] = mask&(1<<j) != 0
				}
				for intr := 0; intr <= 2; intr++ {
					if !st.Flooded[0] {
						st.Intrusions[0] = intr
					}
					if _, err := opstate.Evaluate(cfg, st); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkEnsembleGeneration measures the hurricane-ensemble
// substrate itself (the paper's 1000 ADCIRC realizations stand-in);
// 100 realizations per iteration.
func BenchmarkEnsembleGeneration(b *testing.B) {
	gen := mustGenerator(b)
	cfg := hazard.OahuScenario()
	cfg.Realizations = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func mustGenerator(b *testing.B) *hazard.Generator {
	b.Helper()
	gen, err := hazard.NewGenerator(OahuTerrain(), DefaultSurgeParams(), OahuAssets())
	if err != nil {
		b.Fatal(err)
	}
	return gen
}

// BenchmarkAttackGreedyVsExhaustive is the ablation for the paper's
// §V-B efficiency claim: the greedy worst-case attacker vs exhaustive
// target enumeration on the "6+6+6" configuration.
func BenchmarkAttackGreedyVsExhaustive(b *testing.B) {
	cfg := topology.NewConfig666("p", "s", "d")
	flooded := []bool{false, false, false}
	cap := threat.Capability{Intrusions: 1, Isolations: 1}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attack.WorstCase(cfg, flooded, cap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := attack.WorstCaseExhaustive(cfg, flooded, cap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFloodThresholdSweep is the ablation for the 0.5 m failure
// threshold: it reports the Honolulu flood probability at 0.25 m,
// 0.5 m (the paper's switch height), and 1.0 m.
func BenchmarkFloodThresholdSweep(b *testing.B) {
	cs := benchCaseStudy(b)
	e := cs.Ensemble()
	var rates [3]float64
	thresholds := []float64{0.25, 0.5, 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti, th := range thresholds {
			count := 0
			for r := 0; r < e.Size(); r++ {
				d, err := e.Depth(r, HonoluluCC)
				if err != nil {
					b.Fatal(err)
				}
				if d > th {
					count++
				}
			}
			rates[ti] = float64(count) / float64(e.Size())
		}
	}
	b.StopTimer()
	b.ReportMetric(rates[0], "pFlood_0.25m")
	b.ReportMetric(rates[1], "pFlood_0.50m")
	b.ReportMetric(rates[2], "pFlood_1.00m")
}

// BenchmarkEnsembleConvergence is the ablation for ensemble size: the
// Honolulu flood probability at 100 vs 1000 realizations.
func BenchmarkEnsembleConvergence(b *testing.B) {
	gen := mustGenerator(b)
	sizes := []int{100, 300, 1000}
	rates := make([]float64, len(sizes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, n := range sizes {
			cfg := hazard.OahuScenario()
			cfg.Realizations = n
			e, err := gen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rate, err := e.FailureRate(HonoluluCC)
			if err != nil {
				b.Fatal(err)
			}
			rates[si] = rate
		}
	}
	b.StopTimer()
	for si, n := range sizes {
		b.ReportMetric(rates[si], fmt.Sprintf("pFlood_n%d", n))
	}
}

// BenchmarkSCADASimulation measures one behavioral run of each
// configuration under the full compound threat.
func BenchmarkSCADASimulation(b *testing.B) {
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary: "p", Second: "s", DataCenter: "d",
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(sanitize(cfg.Name), func(b *testing.B) {
			plan, err := attack.WorstCase(cfg, make([]bool, len(cfg.Sites)),
				threat.HurricaneIntrusionIsolation.Capability())
			if err != nil {
				b.Fatal(err)
			}
			sc := scada.Scenario{
				Flooded:           make([]bool, len(cfg.Sites)),
				Isolated:          plan.Plan.IsolatedSites,
				IntrusionsPerSite: plan.Plan.IntrusionsPerSite,
			}
			var res scada.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = scada.Run(cfg, sc, scada.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Delivered), "delivered")
		})
	}
}

// BenchmarkPlacementSearch measures the §VII placement search over all
// candidate pairs.
func BenchmarkPlacementSearch(b *testing.B) {
	cs := benchCaseStudy(b)
	req := PlacementRequest{
		Ensemble:  cs.Ensemble(),
		Inventory: OahuAssets(),
		Primary:   HonoluluCC,
		Scenario:  HurricaneIntrusionIsolation,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchPlacements(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendedConfigs evaluates the extended configuration family
// ("4", "4-4", "3+3+3+3" from Babay et al.) under the full compound
// threat, reporting green probabilities — the "would a different
// layout have fared better?" ablation.
func BenchmarkExtendedConfigs(b *testing.B) {
	cs := benchCaseStudy(b)
	configs, err := topology.ExtendedConfigs(topology.ExtendedPlacement{
		Placement: topology.Placement{
			Primary: HonoluluCC, Second: Kahe, DataCenter: DRFortress,
		},
		SecondDataCenter: AlohaNAP,
	})
	if err != nil {
		b.Fatal(err)
	}
	var outs []analysis.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err = analysis.RunConfigs(cs.Ensemble(), configs, threat.HurricaneIntrusionIsolation)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, o := range outs {
		b.ReportMetric(o.Profile.Probability(opstate.Green), sanitize(o.Config.Name)+"_green")
	}
}

// BenchmarkDowntime reports expected downtime per hurricane event (in
// hours) for each configuration under the full compound threat.
func BenchmarkDowntime(b *testing.B) {
	cs := benchCaseStudy(b)
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary: HonoluluCC, Second: Waiau, DataCenter: DRFortress,
	})
	if err != nil {
		b.Fatal(err)
	}
	model := analysis.DefaultDowntimeModel()
	var outs []analysis.DowntimeOutcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err = analysis.RunDowntimeConfigs(cs.Ensemble(), configs, threat.HurricaneIntrusionIsolation, model)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, o := range outs {
		b.ReportMetric(o.ExpectedDowntime.Hours(), sanitize(o.Config.Name)+"_hours")
	}
}

// BenchmarkPowerSweep runs the §VII attacker-power sweep for "6-6".
func BenchmarkPowerSweep(b *testing.B) {
	cs := benchCaseStudy(b)
	configs, err := topology.StandardConfigs(topology.Placement{
		Primary: HonoluluCC, Second: Waiau, DataCenter: DRFortress,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := analysis.PowerSweepRequest{
		Ensemble:   cs.Ensemble(),
		Config:     configs[3], // "6-6"
		Capability: threat.HurricaneIntrusionIsolation.Capability(),
		Successes:  []float64{0, 0.25, 0.5, 0.75, 1},
		Seed:       1,
	}
	var points []analysis.PowerPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err = analysis.RunPowerSweep(req)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, pt := range points {
		b.ReportMetric(pt.Profile.Probability(opstate.Green),
			fmt.Sprintf("green_at_%.0f%%", 100*pt.Success))
	}
}
