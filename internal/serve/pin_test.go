package serve

import (
	"testing"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
)

// TestPinnedHashes pins the hashes that outlive a process: a job id is
// the handle a client polls and a handoff envelope carries, and an
// ensemble fingerprint names the ensemble's store entries, view keys
// and router shard keys. A change to either orphans state a previous
// process wrote.
func TestPinnedHashes(t *testing.T) {
	if got, want := jobID("00000000cafef00d|Hurricane|green|2|true|0|a\x1fb"), "65ec52a761b70006"; got != want {
		t.Errorf("jobID = %s, want %s", got, want)
	}

	// The built-in hurricane ensemble, as threatserver generates it,
	// at a small realization count.
	inv := assets.Oahu()
	gen, err := hazard.NewGenerator(terrain.NewOahu(), surge.DefaultParams(), inv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hazard.OahuScenario()
	cfg.Realizations = 40
	e, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(map[string]Ensemble{"hurricane": e}, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s.Handler(), "/v1/healthz")
	fp := body["ensembles"].([]any)[0].(map[string]any)["fingerprint"]
	if want := "cdfcac42eaed6782"; fp != want {
		t.Errorf("hurricane fingerprint = %v, want %s", fp, want)
	}
}
