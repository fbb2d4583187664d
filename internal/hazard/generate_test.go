package hazard

import (
	"math"
	"strings"
	"testing"
	"time"

	"compoundthreat/internal/obs"
)

// requireEnsemblesBitIdentical compares two ensembles depth-for-depth
// (exact float64 bits) and word-for-word on the failure bit-plane.
func requireEnsemblesBitIdentical(t *testing.T, label string, got, want *Ensemble) {
	t.Helper()
	if len(got.depths) != len(want.depths) {
		t.Fatalf("%s: %d realizations, want %d", label, len(got.depths), len(want.depths))
	}
	for r := range want.depths {
		for a := range want.depths[r] {
			g, w := got.depths[r][a], want.depths[r][a]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: depth[%d][%s] = %v (%#x), want %v (%#x)",
					label, r, want.assetIDs[a], g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for i := range want.failedBits {
		if got.failedBits[i] != want.failedBits[i] {
			t.Fatalf("%s: failure bit-plane word %d = %#x, want %#x",
				label, i, got.failedBits[i], want.failedBits[i])
		}
	}
}

// TestGenerateMatchesReference is the tentpole acceptance check at
// unit scale: the single-scan batch pipeline must be bit-identical to
// the retained per-consumer reference path across seeds and worker
// counts.
func TestGenerateMatchesReference(t *testing.T) {
	gen, cfg := testSetup(t)
	for _, seed := range []int64{7, 99} {
		cfg.Seed = seed
		cfg.Workers = 1
		want, err := gen.GenerateReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg.Workers = workers
			got, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEnsemblesBitIdentical(t, "batch", got, want)
			ref, err := gen.GenerateReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEnsemblesBitIdentical(t, "reference", ref, want)
		}
	}
}

// poisonedConfig passes Validate but makes every realization's track
// construction fail: an infinite track-offset sigma is a legal
// (non-negative, non-NaN) perturbation whose geodesic displacement
// produces invalid track points.
func poisonedConfig(cfg EnsembleConfig) EnsembleConfig {
	cfg.Spread.TrackOffsetSigmaMeters = math.Inf(1)
	return cfg
}

// TestGenerateErrorNoDeadlock is the regression test for the producer
// deadlock: with Workers=1 (or any count), a worker erroring on its
// first job used to exit without draining the unbuffered jobs channel,
// blocking the producer forever. Both paths must instead return the
// recorded error promptly.
func TestGenerateErrorNoDeadlock(t *testing.T) {
	gen, base := testSetup(t)
	cfg := poisonedConfig(base)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("poisoned config must still validate, got %v", err)
	}
	paths := map[string]func(EnsembleConfig) (*Ensemble, error){
		"batch":     gen.Generate,
		"reference": gen.GenerateReference,
	}
	for name, generate := range paths {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			type result struct {
				e   *Ensemble
				err error
			}
			ch := make(chan result, 1)
			go func() {
				e, err := generate(cfg)
				ch <- result{e, err}
			}()
			select {
			case res := <-ch:
				if res.err == nil {
					t.Fatalf("%s workers=%d: poisoned config should error", name, workers)
				}
				if !strings.Contains(res.err.Error(), "realization") {
					t.Errorf("%s workers=%d: error %q should identify the realization", name, workers, res.err)
				}
				if res.e != nil {
					t.Errorf("%s workers=%d: ensemble should be nil on error", name, workers)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s workers=%d: Generate deadlocked", name, workers)
			}
		}
	}
}

// TestGenerateObsInstruments checks the generation counters and
// per-phase histograms land in the run report recorder.
func TestGenerateObsInstruments(t *testing.T) {
	rec := obs.New()
	obs.Enable(rec)
	defer obs.Enable(nil)

	gen, cfg := testSetup(t)
	cfg.Workers = 2
	if _, err := gen.Generate(cfg); err != nil {
		t.Fatal(err)
	}

	n := int64(cfg.Realizations)
	if got := rec.Counter("hazard.realizations").Value(); got != n {
		t.Errorf("hazard.realizations = %d, want %d", got, n)
	}
	if got := rec.Counter("surge.track_steps").Value(); got <= 0 {
		t.Errorf("surge.track_steps = %d, want > 0", got)
	}
	if got := rec.Counter("surge.setup_evals").Value(); got <= 0 {
		t.Errorf("surge.setup_evals = %d, want > 0", got)
	}
	if got := rec.Counter("surge.setup_memo_hits").Value(); got <= 0 {
		t.Errorf("surge.setup_memo_hits = %d, want > 0", got)
	}
	for _, phase := range []string{
		"hazard.generate.track_ns",
		"hazard.generate.setup_ns",
		"hazard.generate.zones_ns",
	} {
		if got := rec.Histogram(phase).Count(); got != n {
			t.Errorf("%s recorded %d phases, want %d", phase, got, n)
		}
	}
	if got := rec.Histogram("hazard.generate.bitplane_ns").Count(); got != 1 {
		t.Errorf("hazard.generate.bitplane_ns recorded %d, want 1", got)
	}
}

// TestGenerateReferenceDeterministic mirrors the existing determinism
// coverage for the retained slow path.
func TestGenerateReferenceDeterministic(t *testing.T) {
	gen, cfg := testSetup(t)
	cfg.Realizations = 20
	cfg.Workers = 1
	want, err := gen.GenerateReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	got, err := gen.GenerateReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEnsemblesBitIdentical(t, "reference workers", got, want)
}
