package surge

import (
	"testing"

	"compoundthreat/internal/geo"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/racetest"
)

// batchTestRegions mixes the geometries Generate compiles: zone-sized
// disks, site-sized averaging disks, an empty disk that falls back to
// the nearest segment, and a whole-island disk.
func batchTestRegions() []Region {
	return []Region{
		{Center: geo.XY{X: 0, Y: -10007}, Radius: 5000},
		{Center: geo.XY{X: 0, Y: 10007}, Radius: 5000},
		{Center: geo.XY{X: 123, Y: -9900}, Radius: 4000},
		{Center: geo.XY{X: 0, Y: -60000}, Radius: 100}, // empty: nearest fallback
		{Center: geo.XY{X: 0, Y: 0}, Radius: 300000},   // everything
		{Center: geo.XY{X: -9000, Y: 40}, Radius: 4000},
	}
}

// TestBatchMatchesRegionPeak is the tentpole bit-identity contract:
// one PeakAverages scan must reproduce every region's independent
// RegionPeak result exactly, on both the synthetic island and the real
// Oahu geometry.
func TestBatchMatchesRegionPeak(t *testing.T) {
	for name, s := range solversUnderTest(t) {
		be, err := s.NewBatchEvaluator(batchTestRegions())
		if err != nil {
			t.Fatal(err)
		}
		if be.NumRegions() != len(batchTestRegions()) {
			t.Fatalf("%s: NumRegions = %d, want %d", name, be.NumRegions(), len(batchTestRegions()))
		}
		if be.UnionSize() == 0 || be.UnionSize() > s.NumSegments() {
			t.Fatalf("%s: UnionSize = %d out of range (0, %d]", name, be.UnionSize(), s.NumSegments())
		}
		for _, km := range []float64{30, 60, 120} {
			tr := southTrack(t, km)
			out := make([]float64, be.NumRegions())
			var sc Scratch
			if err := be.PeakAverages(tr, &sc, out); err != nil {
				t.Fatal(err)
			}
			for j, r := range batchTestRegions() {
				want := s.RegionPeak(tr, r.Center, r.Radius)
				if out[j] != want {
					t.Fatalf("%s: region %d at %v km: batch %v != RegionPeak %v",
						name, j, km, out[j], want)
				}
			}
		}
	}
}

// TestBatchScratchReuse proves a warm scratch carried across tracks
// does not leak state between calls.
func TestBatchScratchReuse(t *testing.T) {
	s := newTestSolver(t)
	be, err := s.NewBatchEvaluator(batchTestRegions())
	if err != nil {
		t.Fatal(err)
	}
	var warm Scratch
	out := make([]float64, be.NumRegions())
	for _, km := range []float64{120, 30, 60} {
		tr := southTrack(t, km)
		if err := be.PeakAverages(tr, &warm, out); err != nil {
			t.Fatal(err)
		}
		fresh := make([]float64, be.NumRegions())
		if err := be.PeakAverages(tr, &Scratch{}, fresh); err != nil {
			t.Fatal(err)
		}
		for j := range out {
			if out[j] != fresh[j] {
				t.Fatalf("km %v region %d: warm scratch %v != fresh %v", km, j, out[j], fresh[j])
			}
		}
	}
}

func TestBatchEvaluatorValidation(t *testing.T) {
	s := newTestSolver(t)
	if _, err := s.NewBatchEvaluator(nil); err == nil {
		t.Error("NewBatchEvaluator(nil) should error")
	}
	be, err := s.NewBatchEvaluator(batchTestRegions())
	if err != nil {
		t.Fatal(err)
	}
	tr := southTrack(t, 60)
	if err := be.PeakAverages(tr, &Scratch{}, make([]float64, 1)); err == nil {
		t.Error("PeakAverages with wrong out length should error")
	}
}

// TestBatchCounters checks the generation observability contract: one
// setup evaluation per union segment per step, and every further
// consumer reference counted as a memo hit.
func TestBatchCounters(t *testing.T) {
	rec := obs.New()
	obs.Enable(rec)
	defer obs.Enable(nil)

	s := newTestSolver(t)
	be, err := s.NewBatchEvaluator(batchTestRegions())
	if err != nil {
		t.Fatal(err)
	}
	tr := southTrack(t, 60)
	out := make([]float64, be.NumRegions())
	if err := be.PeakAverages(tr, &Scratch{}, out); err != nil {
		t.Fatal(err)
	}

	steps := int64(tr.Duration()/s.params.StepInterval) + 1
	if got := rec.Counter("surge.track_steps").Value(); got != steps {
		t.Errorf("track_steps = %d, want %d", got, steps)
	}
	if got := rec.Counter("surge.setup_evals").Value(); got != steps*int64(be.UnionSize()) {
		t.Errorf("setup_evals = %d, want %d", got, steps*int64(be.UnionSize()))
	}
	refs := int64(len(be.refs))
	wantHits := steps * (refs - int64(be.UnionSize()))
	if got := rec.Counter("surge.setup_memo_hits").Value(); got != wantHits {
		t.Errorf("setup_memo_hits = %d, want %d", got, wantHits)
	}
	if wantHits <= 0 {
		t.Errorf("test regions should share segments (memo hits %d)", wantHits)
	}
}

// TestPeakAveragesZeroAlloc pins the allocation-free steady state with
// observability both disabled and enabled, in the spirit of
// obs.TestTraceDisabledZeroAlloc.
func TestPeakAveragesZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	s := newTestSolver(t)
	tr := southTrack(t, 60)

	run := func(t *testing.T) {
		t.Helper()
		be, err := s.NewBatchEvaluator(batchTestRegions())
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		out := make([]float64, be.NumRegions())
		if err := be.PeakAverages(tr, &sc, out); err != nil {
			t.Fatal(err) // warm the scratch
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := be.PeakAverages(tr, &sc, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("PeakAverages allocates %v per call, want 0", allocs)
		}
	}

	t.Run("metrics-disabled", func(t *testing.T) {
		obs.Enable(nil)
		run(t)
	})
	t.Run("metrics-enabled", func(t *testing.T) {
		obs.Enable(obs.New())
		defer obs.Enable(nil)
		run(t)
	})
}
