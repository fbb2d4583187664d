package placement

import (
	"context"
	"errors"
	"sort"
	"testing"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/oracle"
	"compoundthreat/internal/seismic"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// hurricaneUniverse hand-builds a 6-candidate hurricane ensemble with
// mixed correlation structure: a coastal pair that floods together, a
// site that floods alone, a site flooding with either group, and two
// sites that never flood.
func hurricaneUniverse(t *testing.T) (analysis.DisasterEnsemble, []string) {
	t.Helper()
	ids := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	cfg := hazard.OahuScenario()
	rows := [][]float64{
		{0, 0, 0, 0, 0, 0},
		{1, 1, 0, 0, 0, 0}, // coastal pair floods together
		{1, 1, 0, 1, 0, 0},
		{0, 0, 1, 0, 0, 0}, // inland site floods alone
		{0, 0, 1, 1, 0, 0},
		{1, 1, 1, 1, 0, 0}, // compound worst case
		{0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0},
		{1, 1, 0, 0, 0, 0},
		{0, 0, 1, 0, 0, 0},
		{0, 0, 0, 0, 0, 0},
		{1, 0, 0, 0, 0, 0}, // c0 without c1: breaks the pair's symmetry
	}
	cfg.Realizations = len(rows)
	e, err := hazard.NewEnsembleFromDepths(cfg, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	return e, ids
}

// earthquakeUniverse generates a seismic ensemble over six sites at
// varying distances from the Oahu fault trace.
func earthquakeUniverse(t *testing.T) (analysis.DisasterEnsemble, []string) {
	t.Helper()
	pts := []geo.Point{
		{Lat: 21.25, Lon: -157.98}, // on the trace
		{Lat: 21.26, Lon: -157.95}, // its near neighbor
		{Lat: 21.31, Lon: -157.86},
		{Lat: 21.36, Lon: -157.75},
		{Lat: 21.45, Lon: -157.80}, // far inland
		{Lat: 21.50, Lon: -158.10},
	}
	ids := make([]string, len(pts))
	as := make([]assets.Asset, len(pts))
	for i, p := range pts {
		ids[i] = "eq" + string(rune('0'+i))
		as[i] = assets.Asset{
			ID: ids[i], Name: ids[i], Type: assets.ControlCenter,
			Location:             p,
			ControlSiteCandidate: true,
		}
	}
	inv, err := assets.NewInventory(as)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seismic.OahuScenario()
	cfg.Realizations = 150
	e, err := seismic.Generate(cfg, inv)
	if err != nil {
		t.Fatal(err)
	}
	return e, ids
}

// bruteForceK enumerates every k-subset of the sorted candidates in
// lexicographic order, scores each through the per-realization
// reference (oracle.RunSequential), and keeps the first best — the reference the
// exact search must match bit for bit.
func bruteForceK(t *testing.T, e analysis.DisasterEnsemble, cands []string, k int, scenario threat.Scenario, w StateWeights) ([]string, float64) {
	t.Helper()
	sorted := append([]string(nil), cands...)
	sort.Strings(sorted)
	var (
		bestSet []string
		bestRaw = -1.0
	)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		subset := make([]string, k)
		for i, j := range idx {
			subset[i] = sorted[j]
		}
		profile, err := oracle.RunSequential(e, topology.NewConfigKSite(subset), scenario)
		if err != nil {
			t.Fatal(err)
		}
		var raw float64
		for _, st := range opstate.States() {
			raw += w[st] * float64(profile.Count(st))
		}
		if raw > bestRaw {
			bestRaw, bestSet = raw, subset
		}
		// Next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == len(sorted)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return bestSet, bestRaw / float64(e.Size())
}

// TestSearchKExactMatchesBruteForce is the correctness anchor: over
// hurricane and earthquake universes of six candidates, every K,
// both standard objectives, and compound-threat scenarios, the
// branch-and-bound result is bit-identical — sites and score — to
// exhaustive enumeration through the full analysis pipeline.
func TestSearchKExactMatchesBruteForce(t *testing.T) {
	hurr, hurrIDs := hurricaneUniverse(t)
	eq, eqIDs := earthquakeUniverse(t)
	universes := []struct {
		name  string
		e     analysis.DisasterEnsemble
		cands []string
	}{
		{"hurricane", hurr, hurrIDs},
		{"earthquake", eq, eqIDs},
	}
	objectives := []struct {
		name string
		w    StateWeights
	}{
		{"green", GreenWeights},
		{"weighted", AvailabilityWeights},
	}
	scenarios := []threat.Scenario{threat.Hurricane, threat.HurricaneIntrusionIsolation}
	for _, u := range universes {
		for _, obj := range objectives {
			for _, scenario := range scenarios {
				for k := 1; k <= len(u.cands); k++ {
					wantSites, wantScore := bruteForceK(t, u.e, u.cands, k, scenario, obj.w)
					got, err := SearchK(KRequest{
						Ensemble:   u.e,
						Candidates: u.cands,
						K:          k,
						Scenario:   scenario,
						Weights:    obj.w,
						Exact:      true,
					})
					if err != nil {
						t.Fatalf("%s/%s/%v k=%d: %v", u.name, obj.name, scenario, k, err)
					}
					if !got.Exact {
						t.Fatalf("%s/%s/%v k=%d: result not marked exact", u.name, obj.name, scenario, k)
					}
					if len(got.Sites) != len(wantSites) {
						t.Fatalf("%s/%s/%v k=%d: sites %v, want %v", u.name, obj.name, scenario, k, got.Sites, wantSites)
					}
					for i := range wantSites {
						if got.Sites[i] != wantSites[i] {
							t.Fatalf("%s/%s/%v k=%d: sites %v, want %v", u.name, obj.name, scenario, k, got.Sites, wantSites)
						}
					}
					if got.Score != wantScore {
						t.Errorf("%s/%s/%v k=%d: score %v, want %v (bit-identical)", u.name, obj.name, scenario, k, got.Score, wantScore)
					}
				}
			}
		}
	}
}

// TestSearchKGreedy pins the greedy heuristic's contract: it is
// deterministic across repeats and worker counts, never beats the
// exact optimum, and its reported score matches re-evaluating its own
// site set from scratch.
func TestSearchKGreedy(t *testing.T) {
	e, ids := hurricaneUniverse(t)
	for k := 1; k <= 4; k++ {
		base := KRequest{
			Ensemble:   e,
			Candidates: ids,
			K:          k,
			Scenario:   threat.HurricaneIntrusionIsolation,
			Weights:    AvailabilityWeights,
		}
		first, err := SearchK(base)
		if err != nil {
			t.Fatal(err)
		}
		if first.Exact {
			t.Errorf("k=%d: greedy result marked exact", k)
		}
		if !sort.StringsAreSorted(first.Sites) {
			t.Errorf("k=%d: sites not sorted: %v", k, first.Sites)
		}
		for _, workers := range []int{1, 2, 0} {
			req := base
			req.Workers = workers
			again, err := SearchK(req)
			if err != nil {
				t.Fatal(err)
			}
			if again.Score != first.Score || len(again.Sites) != len(first.Sites) {
				t.Fatalf("k=%d workers=%d: non-deterministic greedy: %v/%v vs %v/%v",
					k, workers, again.Sites, again.Score, first.Sites, first.Score)
			}
			for i := range first.Sites {
				if again.Sites[i] != first.Sites[i] {
					t.Fatalf("k=%d workers=%d: site set changed: %v vs %v", k, workers, again.Sites, first.Sites)
				}
			}
		}
		// Self-consistency: the greedy score is the true score of its set.
		profile, err := oracle.RunSequential(e, topology.NewConfigKSite(first.Sites), base.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		var raw float64
		for _, st := range opstate.States() {
			raw += base.Weights[st] * float64(profile.Count(st))
		}
		if want := raw / float64(e.Size()); first.Score != want {
			t.Errorf("k=%d: greedy reports %v, its set scores %v", k, first.Score, want)
		}
		exact := base
		exact.Exact = true
		opt, err := SearchK(exact)
		if err != nil {
			t.Fatal(err)
		}
		if first.Score > opt.Score {
			t.Errorf("k=%d: greedy %v beats exact %v", k, first.Score, opt.Score)
		}
	}
}

// TestSearchKProgress checks the callback sees phase transitions and
// monotone counters, and that the final snapshot agrees with the
// result.
func TestSearchKProgress(t *testing.T) {
	e, ids := hurricaneUniverse(t)
	var snaps []KProgress
	res, err := SearchK(KRequest{
		Ensemble:   e,
		Candidates: ids,
		K:          3,
		Scenario:   threat.Hurricane,
		Exact:      true,
		Progress:   func(p KProgress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	phases := map[string]bool{}
	for i, p := range snaps {
		phases[p.Phase] = true
		if i > 0 && p.Evaluated < snaps[i-1].Evaluated {
			t.Errorf("snapshot %d: evaluated went backwards (%d -> %d)", i, snaps[i-1].Evaluated, p.Evaluated)
		}
	}
	if !phases["greedy"] {
		t.Error("no greedy-phase snapshot")
	}
	last := snaps[len(snaps)-1]
	if last.BestScore > res.Score {
		t.Errorf("last snapshot best %v exceeds final score %v", last.BestScore, res.Score)
	}
	if res.Evaluated < int64(len(ids)) {
		t.Errorf("Evaluated = %d, want at least the %d singleton scores", res.Evaluated, len(ids))
	}
}

// TestSearchKInventoryDefault uses the inventory's control-site
// candidates when no explicit universe is given.
func TestSearchKInventoryDefault(t *testing.T) {
	e, inv := fixture(t)
	res, err := SearchK(KRequest{
		Ensemble:  e,
		Inventory: inv,
		K:         2,
		Scenario:  threat.Hurricane,
		Exact:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 4 {
		t.Fatalf("candidates = %d, want the 4 inventory sites", res.Candidates)
	}
	// Two uncorrelated sites keep "6x2" green in every realization.
	if res.Score != 1.0 {
		t.Errorf("score = %v, want 1.0", res.Score)
	}
	for _, s := range res.Sites {
		if s == "p" || s == "corr" {
			t.Errorf("optimal pair includes correlated site %q: %v", s, res.Sites)
		}
	}
}

// TestSearchKCancel: a canceled context aborts the search with a
// wrapped context error.
func TestSearchKCancel(t *testing.T) {
	e, ids := hurricaneUniverse(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SearchKCtx(ctx, KRequest{
		Ensemble:   e,
		Candidates: ids,
		K:          2,
		Scenario:   threat.Hurricane,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSearchKValidation(t *testing.T) {
	e, ids := hurricaneUniverse(t)
	base := KRequest{Ensemble: e, Candidates: ids, K: 2, Scenario: threat.Hurricane}
	tests := []struct {
		name   string
		mutate func(*KRequest)
	}{
		{"nil ensemble", func(r *KRequest) { r.Ensemble = nil }},
		{"zero k", func(r *KRequest) { r.K = 0 }},
		{"k over 64", func(r *KRequest) { r.K = 65 }},
		{"k over candidates", func(r *KRequest) { r.K = len(ids) + 1 }},
		{"bad scenario", func(r *KRequest) { r.Scenario = 0 }},
		{"negative workers", func(r *KRequest) { r.Workers = -1 }},
		{"no universe", func(r *KRequest) { r.Candidates = nil }},
		{"duplicate candidate", func(r *KRequest) { r.Candidates = []string{"c0", "c0", "c1"} }},
		{"asset not in ensemble", func(r *KRequest) { r.Candidates = []string{"c0", "nope"} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := base
			tt.mutate(&req)
			if _, err := SearchK(req); err == nil {
				t.Error("SearchK should fail")
			}
		})
	}
	t.Run("max candidates", func(t *testing.T) {
		req := base
		req.MaxCandidates = 3
		_, err := SearchK(req)
		if !errors.Is(err, ErrTooManyCandidates) {
			t.Fatalf("err = %v, want ErrTooManyCandidates", err)
		}
	})
}

// TestSyntheticEnsemble pins the generator's contract: deterministic
// per seed, seed-sensitive, self-consistent across its row, column,
// and rate views.
func TestSyntheticEnsemble(t *testing.T) {
	a, err := SyntheticUniverse(70, 130, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticUniverse(70, 130, 42)
	if err != nil {
		t.Fatal(err)
	}
	other, err := SyntheticUniverse(70, 130, 43)
	if err != nil {
		t.Fatal(err)
	}
	ids := a.AssetIDs()
	if len(ids) != 70 || a.Size() != 130 {
		t.Fatalf("universe shape %d x %d", len(ids), a.Size())
	}
	same, differs := true, false
	anyFail, anySurvive := false, false
	for r := 0; r < a.Size(); r++ {
		va, err := a.FailureVector(r, ids)
		if err != nil {
			t.Fatal(err)
		}
		vb, _ := b.FailureVector(r, ids)
		vo, _ := other.FailureVector(r, ids)
		for i := range va {
			if va[i] != vb[i] {
				same = false
			}
			if va[i] != vo[i] {
				differs = true
			}
			if va[i] {
				anyFail = true
			} else {
				anySurvive = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different ensembles")
	}
	if !differs {
		t.Error("different seeds produced identical ensembles")
	}
	if !anyFail || !anySurvive {
		t.Error("degenerate universe: want both failures and survivals")
	}
	// Column view matches row view, rates match both.
	for _, id := range []string{ids[0], ids[33], ids[69]} {
		col, err := a.AppendFailureBits(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for r := 0; r < a.Size(); r++ {
			v, _ := a.FailureVector(r, []string{id})
			if v[0] {
				failed++
			}
			if got := col[r>>6]>>uint(r&63)&1 != 0; got != v[0] {
				t.Fatalf("%s row %d: column bit %v, row flag %v", id, r, got, v[0])
			}
		}
		rate, err := a.FailureRate(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(failed) / float64(a.Size()); rate != want {
			t.Errorf("%s: rate %v, want %v", id, rate, want)
		}
	}
	if _, err := a.FailureVector(-1, ids); err == nil {
		t.Error("negative realization should fail")
	}
	if _, err := a.FailureRate("nope"); err == nil {
		t.Error("unknown asset should fail")
	}
	if _, err := SyntheticUniverse(0, 10, 1); err == nil {
		t.Error("zero sites should fail")
	}
}

// TestSearchKSyntheticExact runs exact search on a synthetic universe
// small enough to brute-force and checks bit-identity there too — the
// synthetic generator feeds the same pipeline as real hazards.
func TestSearchKSyntheticExact(t *testing.T) {
	e, err := SyntheticUniverse(9, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	ids := e.AssetIDs()
	wantSites, wantScore := bruteForceK(t, e, ids, 3, threat.HurricaneIntrusionIsolation, GreenWeights)
	got, err := SearchK(KRequest{
		Ensemble:   e,
		Candidates: ids,
		K:          3,
		Scenario:   threat.HurricaneIntrusionIsolation,
		Exact:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSites {
		if got.Sites[i] != wantSites[i] {
			t.Fatalf("sites %v, want %v", got.Sites, wantSites)
		}
	}
	if got.Score != wantScore {
		t.Errorf("score %v, want %v", got.Score, wantScore)
	}
	if got.DistinctPatterns < 1 || got.DistinctPatterns > e.Size() {
		t.Errorf("distinct patterns %d outside (0, %d]", got.DistinctPatterns, e.Size())
	}
}

// TestSearchKLargeGreedy exercises the production shape: a
// thousand-candidate universe searched greedily in well under a
// second of test time.
func TestSearchKLargeGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("large universe")
	}
	e, err := SyntheticUniverse(1024, 400, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SearchK(KRequest{
		Ensemble:   e,
		Candidates: e.AssetIDs(),
		K:          8,
		Scenario:   threat.HurricaneIntrusionIsolation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) != 8 {
		t.Fatalf("sites = %v", res.Sites)
	}
	if res.Score <= 0 || res.Score > 1 {
		t.Fatalf("score = %v", res.Score)
	}
	if res.Candidates != 1024 {
		t.Fatalf("candidates = %d", res.Candidates)
	}
}
