package engine_test

// Tests for the engine's observability hooks: when a recorder is
// enabled the table-cache, matrix, and worker-pool metrics must add up
// exactly; when it is disabled the hot path must stay allocation-free
// (the contract the 0-allocs benchmarks measure).

import (
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/racetest"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// withRecorder installs a fresh recorder for the test and restores the
// disabled default afterwards.
func withRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := obs.New()
	obs.Enable(rec)
	t.Cleanup(func() { obs.Enable(nil) })
	return rec
}

// distinctView compiles and compresses 1000 all-distinct rows over 12
// assets — every row weight 1, the case where the weighted loop does as
// much work as a full realization walk — and returns it with a "6+6+6"
// configuration over three of the assets.
func distinctView(t *testing.T) (*engine.FailureMatrix, *engine.CompressedMatrix, topology.Config) {
	t.Helper()
	e := allDistinctEnsemble(t, 1000, 12)
	ids := e.AssetIDs()
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	return m, engine.Compress(m, 1), topology.NewConfig666(ids[0], ids[5], ids[11])
}

// TestEvaluatorMemoMetrics checks the table-cache accounting: a cell
// whose shape has a table is a memo hit, a table built is a memo miss,
// the analyzer runs 2^S times per table built and never per cell, and
// the realization counter adds up the row weights of every cell.
func TestEvaluatorMemoMetrics(t *testing.T) {
	m, cm, cfg := distinctView(t)
	ids := m.Assets()
	rec := withRecorder(t)
	tables := engine.NewTables()
	cap := threat.HurricaneIntrusionIsolation.Capability()
	cells := []struct {
		cfg        topology.Config
		capability threat.Capability
	}{
		{cfg, cap},
		{topology.NewConfig666(ids[1], ids[7], ids[3]), cap}, // same shape: a hit
		{cfg, threat.Hurricane.Capability()},                 // new capability: a miss
		{cfg, cap},                                           // a hit
	}
	for _, c := range cells {
		if _, err := tables.Counts(cm, c.cfg, c.capability); err != nil {
			t.Fatal(err)
		}
	}
	hits := rec.Counter("engine.memo_hits").Value()
	misses := rec.Counter("engine.memo_misses").Value()
	if hits != 2 || misses != 2 {
		t.Errorf("memo hits %d, misses %d; want 2 cells answered from a table and 2 tables built", hits, misses)
	}
	if got := rec.Counter("engine.realizations").Value(); got != int64(len(cells)*m.Rows()) {
		t.Errorf("realizations counter = %d, want %d", got, len(cells)*m.Rows())
	}
	if evals, want := rec.Counter("attack.analyzer_evals").Value(), misses<<uint(len(cfg.Sites)); evals != want {
		t.Errorf("analyzer evals = %d, want %d (2^%d per table built)", evals, want, len(cfg.Sites))
	}
}

// TestMatrixCompileMetrics checks the compile-phase span and counters.
func TestMatrixCompileMetrics(t *testing.T) {
	assets := []string{"a", "b", "c", "d"}
	e := randomEnsemble(t, 3, 120, assets)
	rec := withRecorder(t)
	if _, err := engine.NewFailureMatrix(e, assets); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("engine.matrices_compiled").Value(); got != 1 {
		t.Errorf("matrices_compiled = %d, want 1", got)
	}
	if got := rec.Counter("engine.matrix_rows").Value(); got != 120 {
		t.Errorf("matrix_rows = %d, want 120", got)
	}
	if got := rec.Counter("engine.matrix_cells").Value(); got != 480 {
		t.Errorf("matrix_cells = %d, want 480", got)
	}
	rep := rec.Report("test", nil)
	if h := rep.Histogram["engine.matrix_compile_ns"]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("engine.matrix_compile_ns in report = %+v, want one positive duration", h)
	}
}

// TestForEachMetrics checks the worker-pool accounting for both the
// sequential and the parallel path.
func TestForEachMetrics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rec := obs.New()
		obs.Enable(rec)
		const n = 37
		if err := engine.ForEach(workers, n, func(i int) error { return nil }); err != nil {
			obs.Enable(nil)
			t.Fatal(err)
		}
		obs.Enable(nil)
		if got := rec.Counter("engine.foreach_calls").Value(); got != 1 {
			t.Errorf("workers=%d: foreach_calls = %d, want 1", workers, got)
		}
		if got := rec.Counter("engine.foreach_tasks").Value(); got != n {
			t.Errorf("workers=%d: foreach_tasks = %d, want %d", workers, got, n)
		}
		if got := rec.Counter("engine.foreach_workers").Value(); got != int64(workers) {
			t.Errorf("workers=%d: foreach_workers = %d", workers, got)
		}
		h := rec.Histogram("engine.tasks_per_worker")
		if h.Count() != int64(workers) {
			t.Errorf("workers=%d: tasks_per_worker count = %d", workers, h.Count())
		}
		if h.Sum() != n {
			t.Errorf("workers=%d: tasks_per_worker sum = %d, want %d", workers, h.Sum(), n)
		}
		if busy := rec.Histogram("engine.worker_busy_ns"); busy.Count() != int64(workers) {
			t.Errorf("workers=%d: worker_busy count = %d", workers, busy.Count())
		}
	}
}

// TestInstrumentedResultsUnchanged cross-checks that enabling the
// recorder does not change any computed outcome.
func TestInstrumentedResultsUnchanged(t *testing.T) {
	cap := threat.HurricaneIntrusionIsolation.Capability()
	_, cm, cfg := distinctView(t)
	plain, err := engine.CellCountsCompressed(cm, cfg, cap, 2)
	if err != nil {
		t.Fatal(err)
	}

	withRecorder(t)
	_, cm2, _ := distinctView(t)
	instrumented, err := engine.CellCountsCompressed(cm2, cfg, cap, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plain != instrumented {
		t.Fatalf("instrumented counts %v != plain counts %v", instrumented, plain)
	}
}

// weightedAllocs binds the table kernel over the all-distinct view,
// then returns the allocations per weighted pass over all 1000 rows.
func weightedAllocs(t *testing.T, cm *engine.CompressedMatrix, cfg topology.Config) float64 {
	t.Helper()
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	cell, err := engine.NewTables().Cell(cm, cfg, threat.HurricaneIntrusionIsolation.Capability())
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(20, func() {
		var counts engine.Counts
		if err := cell.Add(&counts, 0, cm.DistinctRows()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAddRangeNoAllocsDisabled pins the hard requirement: with
// observability off, the table kernel's weighted row loop performs zero
// allocations, even over 1000 weight-1 rows.
func TestAddRangeNoAllocsDisabled(t *testing.T) {
	_, cm, cfg := distinctView(t)
	if allocs := weightedAllocs(t, cm, cfg); allocs != 0 {
		t.Fatalf("Cell.Add allocated %v times per run with observability disabled", allocs)
	}
}

// TestAddRangeNoAllocsEnabled: the same loop stays allocation-free
// with a live recorder — metrics are atomics resolved when the table
// cache is made.
func TestAddRangeNoAllocsEnabled(t *testing.T) {
	_, cm, cfg := distinctView(t)
	withRecorder(t)
	if allocs := weightedAllocs(t, cm, cfg); allocs != 0 {
		t.Fatalf("Cell.Add allocated %v times per run with observability enabled", allocs)
	}
}
