package engine_test

// Allocation benchmarks for the engine hot path: the table kernel's
// weighted row loop (Cell.Add) must not allocate (run with -benchmem to verify
// 0 allocs/op).

import (
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

func benchFixture(b *testing.B) (*engine.FailureMatrix, topology.Config, threat.Capability) {
	assets := []string{"p", "s", "d"}
	e := randomEnsemble(b, 42, 1000, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		b.Fatal(err)
	}
	return m, topology.NewConfig666("p", "s", "d"), threat.HurricaneIntrusionIsolation.Capability()
}

// BenchmarkCompress measures deduplicating the 1000-realization
// matrix itself — the one-off cost a sweep pays before its cells drop
// to O(distinct rows).
func BenchmarkCompress(b *testing.B) {
	m, _, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Compress(m, 1)
	}
}

// BenchmarkAddWeighted measures the table kernel's weighted inner loop
// over the distinct rows of the compressed 1000-realization matrix.
// With the table built, each row is bit-extraction plus a table
// lookup — 0 allocs/op — over ~8 distinct patterns instead of 1000
// realizations.
func BenchmarkAddWeighted(b *testing.B) {
	m, cfg, cap := benchFixture(b)
	cm := engine.Compress(m, 1)
	cell, err := engine.NewTables().Cell(cm, cfg, cap)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var counts engine.Counts
		if err := cell.Add(&counts, 0, cm.DistinctRows()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellCountsCompressed measures a full cold compressed cell:
// a fresh table cache, the table build, and the weighted walk.
func BenchmarkCellCountsCompressed(b *testing.B) {
	m, cfg, cap := benchFixture(b)
	cm := engine.Compress(m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.CellCountsCompressed(cm, cfg, cap, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrixCompile measures compiling the 1000-realization
// failure matrix itself.
func BenchmarkMatrixCompile(b *testing.B) {
	assets := []string{"p", "s", "d"}
	e := randomEnsemble(b, 42, 1000, assets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewFailureMatrix(e, assets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressAllDistinct is the adversarial end of row
// deduplication: 1000 pairwise-distinct rows over 12 assets, where
// compression finds nothing to merge and spills past the linear-scan
// fast path. Each iteration compiles the matrix, compresses it and
// sweeps the five standard configurations (Figure 9's compound threat)
// over it — the whole cost a sweep pays when flood outcomes are not
// correlated.
func BenchmarkCompressAllDistinct(b *testing.B) {
	e := allDistinctEnsemble(b, 1000, 12)
	ids := e.AssetIDs()
	configs := standardConfigs(b, ids[0], ids[5], ids[11])
	cap := threat.HurricaneIntrusionIsolation.Capability()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := engine.NewFailureMatrix(e, ids)
		if err != nil {
			b.Fatal(err)
		}
		cm := engine.Compress(m, 1)
		for _, cfg := range configs {
			if _, err := engine.CellCountsCompressed(cm, cfg, cap, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
