package engine_test

import (
	"fmt"
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// allDistinctEnsemble is the adversarial worst case for deduplication:
// realization r floods exactly the assets of r's binary encoding, so
// all rows are pairwise distinct (realizations must not exceed
// 2^assets).
func allDistinctEnsemble(t testing.TB, realizations, assets int) *hazard.Ensemble {
	t.Helper()
	if realizations > 1<<uint(assets) {
		t.Fatalf("%d realizations cannot be distinct over %d assets", realizations, assets)
	}
	ids := make([]string, assets)
	for i := range ids {
		ids[i] = fmt.Sprintf("a%02d", i)
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	rows := make([][]float64, realizations)
	for r := range rows {
		rows[r] = make([]float64, assets)
		for i := range rows[r] {
			if r>>uint(i)&1 == 1 {
				rows[r][i] = 1.0
			}
		}
	}
	e, err := hazard.NewEnsembleFromDepths(cfg, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// standardConfigs returns the paper's five configuration families over
// a three-asset placement, for sweeping tests.
func standardConfigs(t testing.TB, primary, second, dc string) []topology.Config {
	t.Helper()
	configs, err := topology.StandardConfigs(topology.Placement{Primary: primary, Second: second, DataCenter: dc})
	if err != nil {
		t.Fatal(err)
	}
	return configs
}

// TestCompressInvariants checks the structural contract of Compress:
// weights sum to the input rows, every distinct row reproduces a source
// row bit-for-bit, distinct rows appear in first-occurrence order, and
// no two distinct rows are equal.
func TestCompressInvariants(t *testing.T) {
	assets := []string{"a", "b", "c", "d", "e"}
	for _, seed := range []int64{1, 2, 3} {
		e := randomEnsemble(t, seed, 400, assets)
		m, err := engine.NewFailureMatrix(e, assets)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := m.Columns(assets)
		if err != nil {
			t.Fatal(err)
		}
		cm := engine.Compress(m, 1)
		if cm.Source() != m {
			t.Fatal("Source() is not the input matrix")
		}
		if cm.Rows() != m.Rows() {
			t.Fatalf("Rows() = %d, want %d", cm.Rows(), m.Rows())
		}
		sum := 0
		for i := 0; i < cm.DistinctRows(); i++ {
			if cm.Weight(i) < 1 {
				t.Fatalf("Weight(%d) = %d", i, cm.Weight(i))
			}
			sum += cm.Weight(i)
		}
		if sum != m.Rows() {
			t.Errorf("weights sum to %d, want %d", sum, m.Rows())
		}
		if want := float64(cm.DistinctRows()) / float64(m.Rows()); cm.Ratio() != want {
			t.Errorf("Ratio() = %v, want %v", cm.Ratio(), want)
		}
		// Walk the source rows: each must map to exactly one distinct
		// pattern, and the first time each distinct index is seen must be
		// in increasing order (first-occurrence order). Re-derive the
		// weights as a cross-check.
		index := map[uint64]int{}
		weights := make([]int, cm.DistinctRows())
		next := 0
		for r := 0; r < m.Rows(); r++ {
			p := m.Pattern(r, cols)
			d, ok := index[p]
			if !ok {
				d = next
				next++
				index[p] = d
				if d >= cm.DistinctRows() {
					t.Fatalf("row %d introduces pattern %d beyond DistinctRows %d", r, d, cm.DistinctRows())
				}
				if got := cm.Pattern(d, cols); got != p {
					t.Fatalf("distinct row %d pattern = %b, want first-occurrence %b", d, got, p)
				}
			}
			weights[d]++
		}
		if next != cm.DistinctRows() {
			t.Fatalf("source has %d distinct patterns, Compress found %d", next, cm.DistinctRows())
		}
		for d, w := range weights {
			if cm.Weight(d) != w {
				t.Errorf("Weight(%d) = %d, want %d", d, cm.Weight(d), w)
			}
		}
		// Gather must agree with Pattern on every distinct row.
		var buf []bool
		for d := 0; d < cm.DistinctRows(); d++ {
			buf = cm.Gather(buf[:0], d, cols)
			p := cm.Pattern(d, cols)
			for j := range cols {
				if buf[j] != (p&(1<<uint(j)) != 0) {
					t.Errorf("Gather(%d)[%d] = %v disagrees with Pattern bit", d, j, buf[j])
				}
			}
		}
	}
}

// TestCompressDeterministicAcrossWorkers: only the hashing pass
// parallelizes, so the distinct-row order and weights must be identical
// for every worker count.
func TestCompressDeterministicAcrossWorkers(t *testing.T) {
	assets := []string{"a", "b", "c", "d"}
	e := randomEnsemble(t, 9, 600, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := m.Columns(assets)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Compress(m, 1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := engine.Compress(m, workers)
		if got.DistinctRows() != want.DistinctRows() {
			t.Fatalf("workers=%d: %d distinct rows, want %d", workers, got.DistinctRows(), want.DistinctRows())
		}
		for d := 0; d < want.DistinctRows(); d++ {
			if got.Weight(d) != want.Weight(d) || got.Pattern(d, cols) != want.Pattern(d, cols) {
				t.Errorf("workers=%d distinct row %d: (pattern %b, weight %d), want (%b, %d)",
					workers, d, got.Pattern(d, cols), got.Weight(d), want.Pattern(d, cols), want.Weight(d))
			}
		}
	}
}

// TestCellCountsCompressedMatchesCellCounts is the weighted path's
// central claim: for random ensembles, every configuration family, and
// every scenario, evaluating distinct patterns with multiplicities is
// bit-identical to walking all realizations with the per-realization
// reference — for any worker count.
func TestCellCountsCompressedMatchesCellCounts(t *testing.T) {
	assets := []string{"p", "s", "d"}
	configs := standardConfigs(t, "p", "s", "d")
	for _, seed := range []int64{10, 11, 12} {
		e := randomEnsemble(t, seed, 350, assets)
		m, err := engine.NewFailureMatrix(e, assets)
		if err != nil {
			t.Fatal(err)
		}
		cm := engine.Compress(m, 0)
		for _, cfg := range configs {
			for _, sc := range threat.Scenarios() {
				want := oracleCounts(t, e, cfg, sc)
				for _, workers := range []int{1, 2, 8, 0} {
					got, err := engine.CellCountsCompressed(cm, cfg, sc.Capability(), workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("seed=%d %s/%v workers=%d: compressed %v != reference %v",
							seed, cfg.Name, sc, workers, got, want)
					}
				}
			}
		}
	}
}

// TestCompressAllDistinct is the adversarial worst case: an ensemble
// where every realization's failure pattern is unique. Compression must
// degrade gracefully — ratio exactly 1.0, every weight 1 — and the
// weighted path must still match the per-realization reference.
func TestCompressAllDistinct(t *testing.T) {
	const realizations = 300
	e := allDistinctEnsemble(t, realizations, 10)
	ids := e.AssetIDs()
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 0)
	if cm.DistinctRows() != realizations {
		t.Fatalf("DistinctRows = %d, want %d (all rows distinct)", cm.DistinctRows(), realizations)
	}
	if cm.Ratio() != 1.0 {
		t.Fatalf("Ratio = %v, want exactly 1.0", cm.Ratio())
	}
	for i := 0; i < cm.DistinctRows(); i++ {
		if cm.Weight(i) != 1 {
			t.Fatalf("Weight(%d) = %d, want 1", i, cm.Weight(i))
		}
	}
	config := topology.NewConfig666(ids[0], ids[1], ids[2])
	for _, sc := range threat.Scenarios() {
		want := oracleCounts(t, e, config, sc)
		got, err := engine.CellCountsCompressed(cm, config, sc.Capability(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: compressed %v != reference %v", sc, got, want)
		}
	}
}

// TestTablesReuseAcrossCells: one table cache serving a sequence of
// differing (config, capability) cells over two different views must
// produce the same counts as a fresh cache per cell.
func TestTablesReuseAcrossCells(t *testing.T) {
	assets := []string{"p", "s", "d"}
	tables := engine.NewTables()
	for _, seed := range []int64{41, 42} {
		e := randomEnsemble(t, seed, 200, assets)
		m, err := engine.NewFailureMatrix(e, assets)
		if err != nil {
			t.Fatal(err)
		}
		cm := engine.Compress(m, 1)
		for _, cfg := range standardConfigs(t, "p", "s", "d") {
			for _, sc := range threat.Scenarios() {
				want, err := engine.CellCountsCompressed(cm, cfg, sc.Capability(), 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tables.Counts(cm, cfg, sc.Capability())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("seed=%d %s/%v: shared-cache counts %v != fresh %v", seed, cfg.Name, sc, got, want)
				}
			}
		}
	}
}
