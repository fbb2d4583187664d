package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/oracle"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// randomEnsemble builds a hazard ensemble with pseudo-random flood
// depths over the given assets.
func randomEnsemble(t testing.TB, seed int64, realizations int, assetIDs []string) *hazard.Ensemble {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := hazard.OahuScenario()
	cfg.Realizations = realizations
	rows := make([][]float64, realizations)
	for r := range rows {
		rows[r] = make([]float64, len(assetIDs))
		for i := range rows[r] {
			// ~30% of entries exceed the 0.5 m flood threshold.
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

// oracleCounts evaluates the cell with the per-realization reference
// and returns its profile as an engine histogram.
func oracleCounts(t testing.TB, e oracle.Ensemble, cfg topology.Config, sc threat.Scenario) engine.Counts {
	t.Helper()
	p, err := oracle.RunSequential(e, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	var c engine.Counts
	for _, s := range opstate.States() {
		c[s] = p.Count(s)
	}
	return c
}

func TestFailureMatrixMatchesFailureVector(t *testing.T) {
	assets := []string{"a", "b", "c", "d", "e"}
	e := randomEnsemble(t, 1, 200, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != e.Size() {
		t.Fatalf("Rows() = %d, want %d", m.Rows(), e.Size())
	}
	if got := m.Assets(); len(got) != len(assets) {
		t.Fatalf("Assets() = %v", got)
	}
	for r := 0; r < e.Size(); r++ {
		want, err := e.FailureVector(r, assets)
		if err != nil {
			t.Fatal(err)
		}
		for c, id := range assets {
			col, ok := m.Column(id)
			if !ok || col != c {
				t.Fatalf("Column(%q) = %d, %v", id, col, ok)
			}
			if m.Failed(r, c) != want[c] {
				t.Errorf("Failed(%d, %d) = %v, want %v", r, c, m.Failed(r, c), want[c])
			}
		}
	}
}

func TestFailureMatrixPatternAndGather(t *testing.T) {
	assets := []string{"a", "b", "c"}
	e := randomEnsemble(t, 2, 100, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	// Gather and Pattern over a permuted column subset must agree with
	// the ensemble's own FailureVector for those assets.
	sub := []string{"c", "a"}
	cols, err := m.Columns(sub)
	if err != nil {
		t.Fatal(err)
	}
	var buf []bool
	for r := 0; r < m.Rows(); r++ {
		want, err := e.FailureVector(r, sub)
		if err != nil {
			t.Fatal(err)
		}
		buf = m.Gather(buf[:0], r, cols)
		p := m.Pattern(r, cols)
		for j := range sub {
			if buf[j] != want[j] {
				t.Errorf("Gather(%d)[%d] = %v, want %v", r, j, buf[j], want[j])
			}
			if (p&(1<<j) != 0) != want[j] {
				t.Errorf("Pattern(%d) bit %d = %v, want %v", r, j, p&(1<<j) != 0, want[j])
			}
		}
	}
}

func TestFailureMatrixValidation(t *testing.T) {
	assets := []string{"a", "b"}
	e := randomEnsemble(t, 3, 10, assets)
	if _, err := engine.NewFailureMatrix(nil, assets); err == nil {
		t.Error("nil source should error")
	}
	if _, err := engine.NewFailureMatrix(e, nil); err == nil {
		t.Error("no assets should error")
	}
	if _, err := engine.NewFailureMatrix(e, []string{"a", "a"}); err == nil {
		t.Error("duplicate asset should error")
	}
	if _, err := engine.NewFailureMatrix(e, []string{"zzz"}); err == nil {
		t.Error("unknown asset should error")
	}
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Columns([]string{"zzz"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestFailureCount(t *testing.T) {
	assets := []string{"a", "b"}
	e := randomEnsemble(t, 4, 300, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	for c, id := range assets {
		rate, err := e.FailureRate(id)
		if err != nil {
			t.Fatal(err)
		}
		want := int(rate*float64(e.Size()) + 0.5)
		if got := m.FailureCount(c); got != want {
			t.Errorf("FailureCount(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := engine.Workers(0); got != procs {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := engine.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := engine.Workers(-5); got != procs {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, procs)
	}
	// A process pinned to one processor evaluates inline.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := engine.Workers(0); got != 1 {
		t.Errorf("Workers(0) under GOMAXPROCS(1) = %d, want 1", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		for _, n := range []int{0, 1, 7, 100} {
			hits := make([]int32, n)
			err := engine.ForEach(workers, n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := engine.ForEach(workers, 50, func(i int) error {
			if i == 13 {
				return fmt.Errorf("index %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
	}
}

// TestCellCountsAgreeAcrossWorkerCounts checks the engine's central
// determinism claim: the same cell evaluated with different worker
// counts (and thus different chunkings) produces identical counts, all
// equal to the per-realization reference. The view is all-distinct so
// every worker count really splits the rows into chunks.
func TestCellCountsAgreeAcrossWorkerCounts(t *testing.T) {
	e := allDistinctEnsemble(t, 500, 12)
	ids := e.AssetIDs()
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	cfg := topology.NewConfig666(ids[0], ids[1], ids[2])
	for _, sc := range threat.Scenarios() {
		want := oracleCounts(t, e, cfg, sc)
		for _, workers := range []int{1, 2, 3, runtime.NumCPU(), 0} {
			got, err := engine.CellCountsCompressed(cm, cfg, sc.Capability(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Total() != e.Size() {
				t.Fatalf("%v workers=%d: total %d, want %d", sc, workers, got.Total(), e.Size())
			}
			if got != want {
				t.Errorf("%v workers=%d: counts %v != reference %v", sc, workers, got, want)
			}
		}
	}
}

func TestCellProfileMatchesCounts(t *testing.T) {
	assets := []string{"p", "s"}
	e := randomEnsemble(t, 6, 120, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	cfg := topology.NewConfig66("p", "s")
	cap := threat.HurricaneIntrusion.Capability()
	counts, err := engine.CellCountsCompressed(cm, cfg, cap, 1)
	if err != nil {
		t.Fatal(err)
	}
	profile := counts.Profile()
	if profile.Total() != counts.Total() {
		t.Fatalf("profile total %d, counts total %d", profile.Total(), counts.Total())
	}
	for _, s := range opstate.States() {
		want := float64(counts[int(s)]) / float64(counts.Total())
		if got := profile.Probability(s); got != want {
			t.Errorf("P(%v) = %v, want %v", s, got, want)
		}
	}
}
