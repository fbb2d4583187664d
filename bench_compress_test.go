package compoundthreat

// Compressed-path benchmarks: the deduplicated weighted sweeps, which
// are the only evaluation path. BenchmarkFigure9Workers,
// BenchmarkFigureAllEngine and BenchmarkPlacementSearch in
// bench_test.go run the same path under the names BENCH_1.json and
// earlier records use. BENCH_3.json records the first measured numbers
// for the sweeps below; `make bench-check` gates them.

import (
	"testing"

	"compoundthreat/internal/analysis"
)

// BenchmarkCompressedFigure9 evaluates Figure 9 (the full compound
// threat) at workers=1: compile the failure matrix, deduplicate its
// rows once, and sweep the five configurations over distinct flood
// patterns only.
func BenchmarkCompressedFigure9(b *testing.B) {
	cs := benchCaseStudy(b)
	fig, err := analysis.FigureByID(9)
	if err != nil {
		b.Fatal(err)
	}
	configs, err := StandardConfigs(fig.Placement)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := analysis.Options{Workers: 1}
		if _, err := analysis.RunConfigsOpt(cs.Ensemble(), configs, fig.Scenario, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedAllFigures evaluates all six paper figures through
// EvaluateAllFigures: one matrix over the union of every figure's site
// assets, compressed once, then 30 weighted cells.
func BenchmarkCompressedAllFigures(b *testing.B) {
	cs := benchCaseStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.EvaluateAllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedSearchPairs runs the §VII pair search: the
// candidate-universe matrix is deduplicated once and every one of the
// O(C²) pairs classifies only distinct patterns, through the one
// attack table their shared configuration shape has.
func BenchmarkCompressedSearchPairs(b *testing.B) {
	cs := benchCaseStudy(b)
	req := PlacementRequest{
		Ensemble:  cs.Ensemble(),
		Inventory: OahuAssets(),
		Primary:   HonoluluCC,
		Scenario:  HurricaneIntrusionIsolation,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchPlacements(req); err != nil {
			b.Fatal(err)
		}
	}
}
