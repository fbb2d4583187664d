package engine_test

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// patternEnsemble builds a hazard ensemble whose rows enumerate every
// flood pattern over the assets, each repeated r+1 times so compressed
// multiplicities differ per pattern.
func patternEnsemble(t testing.TB, assetIDs []string) *hazard.Ensemble {
	t.Helper()
	n := len(assetIDs)
	cfg := hazard.OahuScenario()
	var rows [][]float64
	for p := 0; p < 1<<uint(n); p++ {
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			if p>>uint(i)&1 != 0 {
				row[i] = 1.0
			}
		}
		for rep := 0; rep <= p%3; rep++ {
			rows = append(rows, row)
		}
	}
	cfg.Realizations = len(rows)
	e, err := hazard.NewEnsembleFromDepths(cfg, assetIDs, rows)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func kernelCapabilities() []threat.Capability {
	return []threat.Capability{
		{},
		{Intrusions: 1},
		{Isolations: 1},
		{Intrusions: 1, Isolations: 1},
		{Intrusions: 2, Isolations: 2},
		{Intrusions: 3, Isolations: 1},
	}
}

// TestSymmetricConfig pins the symmetry predicate: single-site and
// uniform active replication are symmetric; primary-backup and
// non-uniform replica layouts are not.
func TestSymmetricConfig(t *testing.T) {
	if !engine.SymmetricConfig(topology.NewConfig6("a")) {
		t.Error("single-site \"6\" should be symmetric")
	}
	if !engine.SymmetricConfig(topology.NewConfig666("a", "b", "c")) {
		t.Error("\"6+6+6\" should be symmetric")
	}
	if !engine.SymmetricConfig(topology.NewConfigKSite([]string{"a", "b"})) {
		t.Error("two-site k-site config should be symmetric")
	}
	if engine.SymmetricConfig(topology.NewConfig66("a", "b")) {
		t.Error("primary-backup should not be symmetric")
	}
	skew := topology.NewConfig666("a", "b", "c")
	skew.Sites[2].Replicas = 3
	if engine.SymmetricConfig(skew) {
		t.Error("non-uniform replica counts should not be symmetric")
	}
	if _, err := engine.StateByCount(topology.NewConfig66("a", "b"), threat.Capability{}); err != engine.ErrNotSymmetric {
		t.Errorf("StateByCount on primary-backup: err = %v, want ErrNotSymmetric", err)
	}
}

// TestStateByCountExhaustive is the symmetry proof backing every
// kernel: for each symmetric configuration and capability, every one
// of the 2^S flood patterns must evaluate (through the full greedy
// attack analyzer) to exactly the table entry of its popcount.
func TestStateByCountExhaustive(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	var configs []topology.Config
	for k := 1; k <= len(ids); k++ {
		configs = append(configs, topology.NewConfigKSite(ids[:k]))
	}
	configs = append(configs, topology.NewConfig666(ids[0], ids[1], ids[2]))
	skew := topology.NewConfigKSite(ids[:4])
	skew.MinActiveSites = 4 // stricter quorum, still symmetric
	configs = append(configs, skew)
	for _, cfg := range configs {
		for _, capability := range kernelCapabilities() {
			tbl, err := engine.StateByCount(cfg, capability)
			if err != nil {
				t.Fatalf("%s/%+v: StateByCount: %v", cfg.Name, capability, err)
			}
			an, err := attack.NewAnalyzer(cfg, capability)
			if err != nil {
				t.Fatal(err)
			}
			n := uint(len(cfg.Sites))
			for mask := uint64(0); mask < 1<<n; mask++ {
				want, err := an.EvaluateMask(mask)
				if err != nil {
					t.Fatal(err)
				}
				if got := tbl[bits.OnesCount64(mask)]; got != want {
					t.Fatalf("%s/%+v: pattern %#x: table says %v, analyzer says %v",
						cfg.Name, capability, mask, got, want)
				}
			}
		}
	}
}

// analyzerCounts is the kernel's reference: a fresh attack.Analyzer
// for cfg evaluates every distinct row of cm, weighted by its
// multiplicity.
func analyzerCounts(t testing.TB, cm *engine.CompressedMatrix, cfg topology.Config, capability threat.Capability) engine.Counts {
	t.Helper()
	an, err := attack.NewAnalyzer(cfg, capability)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := cm.Source().Columns(siteIDs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var counts engine.Counts
	for i := 0; i < cm.DistinctRows(); i++ {
		s, err := an.Evaluate(cm.Gather(nil, i, cols))
		if err != nil {
			t.Fatal(err)
		}
		counts[s] += cm.Weight(i)
	}
	return counts
}

func siteIDs(cfg topology.Config) []string {
	ids := make([]string, len(cfg.Sites))
	for i, s := range cfg.Sites {
		ids[i] = s.AssetID
	}
	return ids
}

// kernelCounts evaluates one cell through the table kernel.
func kernelCounts(t testing.TB, tables *engine.Tables, cm *engine.CompressedMatrix, cfg topology.Config, capability threat.Capability) engine.Counts {
	t.Helper()
	counts, err := tables.Counts(cm, cfg, capability)
	if err != nil {
		t.Fatalf("%s/%+v: %v", cfg.Name, capability, err)
	}
	return counts
}

// TestMaskKernelMatchesAnalyzer cross-checks the table kernel against
// the attack analyzer over an exhaustive pattern universe: identical
// outcome histograms for every site subset, size, replica layout,
// architecture and capability, through one shared table cache.
func TestMaskKernelMatchesAnalyzer(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	e := patternEnsemble(t, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	var configs []topology.Config
	for _, sites := range [][]string{
		{ids[0]},
		{ids[0], ids[1]},
		{ids[2], ids[0], ids[4]}, // unordered on purpose
		{ids[1], ids[3], ids[5]},
		{ids[0], ids[1], ids[2], ids[3]},
		ids,
	} {
		configs = append(configs, topology.NewConfigKSite(sites))
	}
	skew := topology.NewConfig666(ids[3], ids[1], ids[4])
	skew.Sites[2].Replicas = 3
	configs = append(configs,
		topology.NewConfig22(ids[4], ids[2]),
		topology.NewConfig66(ids[5], ids[0]),
		topology.NewConfig3333(ids[1], ids[5], ids[0], ids[2]),
		skew,
	)
	tables := engine.NewTables()
	for _, cfg := range configs {
		for _, capability := range kernelCapabilities() {
			got := kernelCounts(t, tables, cm, cfg, capability)
			if want := analyzerCounts(t, cm, cfg, capability); got != want {
				t.Fatalf("%s %v, capability %+v: kernel %v, analyzer %v", cfg.Name, siteIDs(cfg), capability, got, want)
			}
		}
	}
}

// TestMaskKernelMultiWord exercises the stride > 1 path: a 70-asset
// matrix puts site columns in both words of each row.
func TestMaskKernelMultiWord(t *testing.T) {
	ids := make([]string, 70)
	for i := range ids {
		ids[i] = "a" + string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	e := randomEnsemble(t, 7, 300, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	capability := threat.Capability{Intrusions: 1, Isolations: 1}
	tables := engine.NewTables()
	for _, cfg := range []topology.Config{
		topology.NewConfigKSite([]string{ids[3], ids[40], ids[69]}),
		topology.NewConfig66(ids[65], ids[2]),
	} {
		got := kernelCounts(t, tables, cm, cfg, capability)
		if want := analyzerCounts(t, cm, cfg, capability); got != want {
			t.Fatalf("%s: multi-word kernel %v, analyzer %v", cfg.Name, got, want)
		}
	}
}

// TestMaskKernelBindErrors pins the bind-time failures: unknown assets
// and invalid capabilities fail loudly, an invalid configuration fails
// the build of its shape's table, and a failed build is not cached.
func TestMaskKernelBindErrors(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	e := patternEnsemble(t, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	tables := engine.NewTables()
	if _, err := tables.Cell(cm, topology.NewConfigKSite([]string{"s0", "nope"}), threat.Capability{}); err == nil {
		t.Error("unknown asset should fail")
	}
	if _, err := tables.Cell(cm, topology.NewConfigKSite(ids[:2]), threat.Capability{Intrusions: -1}); err == nil {
		t.Error("negative capability should fail")
	}
	nameless := topology.NewConfigKSite(ids[:2])
	nameless.Name = ""
	if _, err := tables.Cell(cm, nameless, threat.Capability{}); err == nil {
		t.Error("invalid configuration should fail its table build")
	}
	cfg := topology.NewConfigKSite(ids[:2])
	got := kernelCounts(t, tables, cm, cfg, threat.Capability{})
	if want := analyzerCounts(t, cm, cfg, threat.Capability{}); got != want {
		t.Errorf("valid bind after a failed build: kernel %v, analyzer %v", got, want)
	}
}

// TestTableKey pins what one attack table is shared by. Placements of
// one shape share a table whatever their assets; a change to any one
// field the outcome depends on gets a table of its own; and every
// entry of every standard and extended family's table is the
// worst-case attacker's outcome on the unpacked mask.
func TestTableKey(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	e := patternEnsemble(t, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	capability := threat.HurricaneIntrusionIsolation.Capability()

	t.Run("shared", func(t *testing.T) {
		rec := withRecorder(t)
		tables := engine.NewTables()
		for _, cfg := range []topology.Config{
			topology.NewConfig666(ids[0], ids[1], ids[2]),
			topology.NewConfig666(ids[5], ids[3], ids[4]),
		} {
			if got, want := kernelCounts(t, tables, cm, cfg, capability), analyzerCounts(t, cm, cfg, capability); got != want {
				t.Errorf("%v: kernel %v, fresh analyzer %v", siteIDs(cfg), got, want)
			}
		}
		if hits, misses := rec.Counter("engine.memo_hits").Value(), rec.Counter("engine.memo_misses").Value(); hits != 1 || misses != 1 {
			t.Errorf("two placements of one shape: %d hits, %d tables built; want 1 and 1", hits, misses)
		}
	})

	t.Run("distinct", func(t *testing.T) {
		base := func() topology.Config { return topology.NewConfig666(ids[0], ids[1], ids[2]) }
		replicas, f, k, quorum := base(), base(), base(), base()
		replicas.Sites[1].Replicas = 7
		f.IntrusionsTolerated = 2
		k.RecoverySlots = 2
		quorum.MinActiveSites = 3
		// A two-site pair that differs from a primary-backup pair in
		// its architecture only: roles follow the architecture.
		pair := topology.NewConfigKSite(ids[:2])
		backup := topology.NewConfig66(ids[0], ids[1])
		backup.MinActiveSites = pair.MinActiveSites
		cells := []struct {
			name       string
			cfg        topology.Config
			capability threat.Capability
		}{
			{"base", base(), capability},
			{"replicas", replicas, capability},
			{"f", f, capability},
			{"k", k, capability},
			{"min active sites", quorum, capability},
			{"capability", base(), threat.HurricaneIntrusion.Capability()},
			{"active pair", pair, capability},
			{"architecture", backup, capability},
		}
		rec := withRecorder(t)
		tables := engine.NewTables()
		for i, c := range cells {
			if got, want := kernelCounts(t, tables, cm, c.cfg, c.capability), analyzerCounts(t, cm, c.cfg, c.capability); got != want {
				t.Errorf("%s: kernel %v, analyzer %v", c.name, got, want)
			}
			if misses := rec.Counter("engine.memo_misses").Value(); misses != int64(i+1) {
				t.Fatalf("%s: %d tables built after %d cells, want a table of its own", c.name, misses, i+1)
			}
		}
	})

	t.Run("entries", func(t *testing.T) {
		configs, err := topology.ExtendedConfigs(topology.ExtendedPlacement{
			Placement:        topology.Placement{Primary: ids[2], Second: ids[0], DataCenter: ids[5]},
			SecondDataCenter: ids[3],
		})
		if err != nil {
			t.Fatal(err)
		}
		tables := engine.NewTables()
		for _, cfg := range configs {
			cols, err := m.Columns(siteIDs(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range threat.Scenarios() {
				cell, err := tables.Cell(cm, cfg, sc.Capability())
				if err != nil {
					t.Fatal(err)
				}
				seen := map[uint64]bool{}
				for i := 0; i < cm.DistinctRows(); i++ {
					var got engine.Counts
					if err := cell.Add(&got, i, i+1); err != nil {
						t.Fatal(err)
					}
					flooded := cm.Gather(nil, i, cols)
					want, err := attack.WorstCase(cfg, flooded, sc.Capability())
					if err != nil {
						t.Fatal(err)
					}
					if got[want.State] != cm.Weight(i) {
						t.Fatalf("%s/%v: flood %v: kernel %v, worst case %v", cfg.Name, sc, flooded, got, want.State)
					}
					seen[cm.Pattern(i, cols)] = true
				}
				if len(seen) != 1<<uint(len(cfg.Sites)) {
					t.Fatalf("%s: %d of %d masks checked", cfg.Name, len(seen), 1<<uint(len(cfg.Sites)))
				}
			}
		}
	})
}

// TestTablesConcurrentFirstBuild races the first build of one shape's
// table from several goroutines: exactly one build, and every cell
// gets the analyzer's counts. Run under -race.
func TestTablesConcurrentFirstBuild(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	e := randomEnsemble(t, 17, 400, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	capability := threat.HurricaneIntrusionIsolation.Capability()
	configs := []topology.Config{
		topology.NewConfig666(ids[0], ids[1], ids[2]),
		topology.NewConfig666(ids[3], ids[4], ids[5]),
		topology.NewConfig666(ids[5], ids[0], ids[3]),
		topology.NewConfig666(ids[1], ids[2], ids[4]),
	}
	want := make([]engine.Counts, len(configs))
	for i, cfg := range configs {
		want[i] = analyzerCounts(t, cm, cfg, capability)
	}
	rec := withRecorder(t)
	tables := engine.NewTables()
	const goroutines = 8
	got := make([]engine.Counts, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g], errs[g] = tables.Counts(cm, configs[g%len(configs)], capability)
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != want[g%len(configs)] {
			t.Errorf("goroutine %d: kernel %v, analyzer %v", g, got[g], want[g%len(configs)])
		}
	}
	if misses := rec.Counter("engine.memo_misses").Value(); misses != 1 {
		t.Errorf("%d tables built for one shape, want 1", misses)
	}
	if hits := rec.Counter("engine.memo_hits").Value(); hits != goroutines-1 {
		t.Errorf("%d cells answered from the built table, want %d", hits, goroutines-1)
	}
}

// TestFallbackAboveTableBound covers configurations with more sites
// than an attack table holds: a 17-site active-replication
// configuration evaluates row by row through the analyzer, builds no
// table, and still matches the per-realization oracle for every
// scenario at every worker count.
func TestFallbackAboveTableBound(t *testing.T) {
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("a%02d", i)
	}
	e := randomEnsemble(t, 23, 200, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	cfg := topology.NewConfigKSite(ids[2:19])
	if len(cfg.Sites) != 17 || cfg.Arch != topology.ActiveReplication {
		t.Fatalf("fixture is %d sites of %v, want 17 active-replication sites", len(cfg.Sites), cfg.Arch)
	}
	rec := withRecorder(t)
	for _, sc := range threat.Scenarios() {
		want := oracleCounts(t, e, cfg, sc)
		for _, workers := range []int{1, 2} {
			got, err := engine.CellCountsCompressed(cm, cfg, sc.Capability(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v workers=%d: fallback %v != oracle %v", sc, workers, got, want)
			}
		}
	}
	if misses := rec.Counter("engine.memo_misses").Value(); misses != 0 {
		t.Errorf("%d tables built above the bound, want 0", misses)
	}
	wantEvals := int64(2 * len(threat.Scenarios()) * cm.DistinctRows())
	if evals := rec.Counter("engine.fallback_evals").Value(); evals != wantEvals {
		t.Errorf("fallback_evals = %d, want %d (one per distinct row per cell)", evals, wantEvals)
	}
}

// TestCountKernel checks the incremental kernel against the table
// kernel: growing a placement site by site yields the same histograms,
// CountsWith previews exactly what Add would produce, and Remove and
// Clear restore earlier states.
func TestCountKernel(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3", "s4"}
	e := patternEnsemble(t, ids)
	m, err := engine.NewFailureMatrix(e, ids)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 1)
	cols := make([]int, len(ids))
	for i := range cols {
		cols[i] = i
	}
	ck, err := engine.NewCountKernel(cm, cols)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Candidates() != len(ids) {
		t.Fatalf("Candidates() = %d", ck.Candidates())
	}
	for j := range cols {
		for i := 0; i < cm.DistinctRows(); i++ {
			want := uint16(0)
			if cm.Pattern(i, cols[j:j+1]) != 0 {
				want = 1
			}
			if got := ck.FloodBit(j, i); got != want {
				t.Fatalf("FloodBit(%d, %d) = %d, want %d", j, i, got, want)
			}
		}
	}

	capability := threat.Capability{Intrusions: 1, Isolations: 1}
	tables := engine.NewTables()
	order := []int{2, 0, 4, 1}
	for grown := 1; grown <= len(order); grown++ {
		sites := make([]string, grown)
		for i, j := range order[:grown] {
			sites[i] = ids[j]
		}
		cfg := topology.NewConfigKSite(sites)
		tbl, err := engine.StateByCount(cfg, capability)
		if err != nil {
			t.Fatal(err)
		}

		// Preview via CountsWith before mutating.
		var preview engine.Counts
		ck.CountsWith(order[grown-1], tbl, &preview)

		ck.Add(order[grown-1])
		var got engine.Counts
		ck.Counts(tbl, &got)
		if got != preview {
			t.Fatalf("size %d: CountsWith %v != Counts after Add %v", grown, preview, got)
		}

		if want := kernelCounts(t, tables, cm, cfg, capability); got != want {
			t.Fatalf("size %d: count kernel %v, table kernel %v", grown, got, want)
		}
	}
	for _, j := range order {
		ck.Remove(j)
	}
	for i, c := range ck.FloodedCounts() {
		if c != 0 {
			t.Fatalf("row %d count %d after removing all", i, c)
		}
	}
	ck.Add(1)
	ck.Clear()
	for _, c := range ck.FloodedCounts() {
		if c != 0 {
			t.Fatal("Clear left non-zero counts")
		}
	}
}
