// Package analysis is the paper's primary contribution: the
// data-centric compound-threat analysis pipeline of Figure 5.
//
// For every hurricane realization in an ensemble, the pipeline derives
// the post-natural-disaster system state (which control sites are
// flooded), applies the worst-case cyberattack for the chosen threat
// scenario, evaluates the resulting operational state (Table I), and
// aggregates outcome probabilities over the ensemble.
//
// There is one execution path: the ensemble is compiled into a
// bit-packed failure matrix, its rows are deduplicated to the distinct
// flood patterns (the paper's §VI finding that flood outcomes are
// highly correlated makes these few), and every (configuration,
// scenario) cell is evaluated per pattern, weighted by multiplicity,
// with the allocation-free parallel engine (internal/engine). Tests
// cross-check it bit for bit against the plain per-realization
// reference implementations in internal/oracle.
package analysis

import (
	"context"
	"errors"
	"fmt"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// DisasterEnsemble is the disaster-agnostic view of a realization
// ensemble: the analysis pipeline only needs to know, per realization,
// which assets the disaster took out. hazard.Ensemble (hurricanes) and
// seismic.Ensemble (earthquakes) both satisfy it. Implementations must
// be safe for concurrent readers (every ensemble in this module is:
// they are immutable after generation); those that also provide
// engine.VectorAppender get an allocation-free compile path.
type DisasterEnsemble interface {
	// Size returns the number of realizations.
	Size() int
	// FailureVector returns, for realization r, the failed flags for
	// the given asset IDs in order.
	FailureVector(r int, assetIDs []string) ([]bool, error)
	// FailureRate returns the fraction of realizations in which the
	// asset fails.
	FailureRate(assetID string) (float64, error)
}

// Options tunes how the analysis engine schedules work.
type Options struct {
	// Workers bounds parallelism: 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs single-threaded (still on the
	// allocation-free engine path).
	Workers int
}

// Outcome is the result of analyzing one configuration under one
// threat scenario.
type Outcome struct {
	// Config is the analyzed SCADA configuration.
	Config topology.Config
	// Scenario is the threat scenario applied.
	Scenario threat.Scenario
	// Profile is the distribution of operational states over the
	// ensemble.
	Profile *stats.Profile
}

// siteAssets returns the configuration's site asset IDs in order.
func siteAssets(cfg topology.Config) []string {
	out := make([]string, len(cfg.Sites))
	for i, s := range cfg.Sites {
		out[i] = s.AssetID
	}
	return out
}

// validateCell checks the shared preconditions of every analysis entry
// point.
func validateCell(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario) error {
	if e == nil {
		return errors.New("analysis: nil ensemble")
	}
	if !scenario.Valid() {
		return fmt.Errorf("analysis: invalid scenario %d", int(scenario))
	}
	return cfg.Validate()
}

// Run analyzes one configuration under one scenario across the whole
// ensemble on the engine path: one compile, one row deduplication
// (hashed across runtime.GOMAXPROCS(0) workers), and one table-kernel
// pass over the distinct rows. Results are bit-identical to walking
// every realization with the worst-case attacker.
func Run(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario) (Outcome, error) {
	return RunOpt(e, cfg, scenario, Options{})
}

// RunOpt is Run with an explicit worker bound.
func RunOpt(e DisasterEnsemble, cfg topology.Config, scenario threat.Scenario, opt Options) (Outcome, error) {
	if err := validateCell(e, cfg, scenario); err != nil {
		return Outcome{}, err
	}
	v, err := compileView(e, siteAssets(cfg), opt)
	if err != nil {
		return Outcome{}, fmt.Errorf("analysis: %s: %w", cfg.Name, err)
	}
	return runCell(v, cfg, scenario)
}

// compiledView bundles a compiled failure matrix's deduplicated row
// view with the attack tables its cells share: every configuration of
// one shape, under one capability, evaluates through one table.
type compiledView struct {
	cm     *engine.CompressedMatrix
	tables *engine.Tables
}

// compileView compiles the ensemble's failure flags for the given
// assets and compresses the rows to distinct patterns once, so every
// subsequent cell is O(distinct rows).
func compileView(e DisasterEnsemble, assetIDs []string, opt Options) (compiledView, error) {
	m, err := engine.NewFailureMatrix(e, assetIDs)
	if err != nil {
		return compiledView{}, err
	}
	return compiledView{cm: engine.Compress(m, opt.Workers), tables: engine.NewTables()}, nil
}

// runCell evaluates one (config, scenario) cell against a compiled
// view: one pass of the table kernel over the distinct rows. cfg has
// been validated by the entry point.
func runCell(v compiledView, cfg topology.Config, scenario threat.Scenario) (Outcome, error) {
	obs.Default().Counter("analysis.cells").Add(1)
	counts, err := v.tables.Counts(v.cm, cfg, scenario.Capability())
	if err != nil {
		return Outcome{}, fmt.Errorf("analysis: %s: %w", cfg.Name, err)
	}
	return Outcome{Config: cfg, Scenario: scenario, Profile: counts.Profile()}, nil
}

// assetUniverse validates every configuration and returns the union
// of their site assets in first-occurrence order.
func assetUniverse(configs []topology.Config) ([]string, error) {
	var universe []string
	seen := make(map[string]bool)
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for _, s := range cfg.Sites {
			if !seen[s.AssetID] {
				seen[s.AssetID] = true
				universe = append(universe, s.AssetID)
			}
		}
	}
	return universe, nil
}

// compileUniverse compiles one failure matrix over the union of the
// configurations' site assets (each configuration resolves its own
// column subset at evaluation time), then compresses it.
// One compile + one compression serve every (config, scenario) cell.
// Compilation stays sequential (it touches the ensemble through its
// interface); evaluation afterwards reads only the immutable view and
// parallelizes freely.
func compileUniverse(e DisasterEnsemble, configs []topology.Config, opt Options) (compiledView, error) {
	defer obs.Default().StartSpan("analysis.compile_matrices_ns").End()
	universe, err := assetUniverse(configs)
	if err != nil {
		return compiledView{}, err
	}
	v, err := compileView(e, universe, opt)
	if err != nil {
		return compiledView{}, fmt.Errorf("analysis: %w", err)
	}
	return v, nil
}

// RunConfigs analyzes several configurations under one scenario,
// evaluating the (config) cells in parallel.
func RunConfigs(e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario) ([]Outcome, error) {
	return RunConfigsOpt(e, configs, scenario, Options{})
}

// RunConfigsOpt is RunConfigs with an explicit worker bound.
func RunConfigsOpt(e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario, opt Options) ([]Outcome, error) {
	return RunConfigsCtx(context.Background(), e, configs, scenario, opt)
}

// RunConfigsCtx is RunConfigsOpt with request-scoped tracing: when ctx
// carries a trace span (obs.SpanFromContext), the compile and the
// parallel cell sweep are recorded as child spans. The context does
// not cancel the computation; it only carries the trace.
func RunConfigsCtx(ctx context.Context, e DisasterEnsemble, configs []topology.Config, scenario threat.Scenario, opt Options) ([]Outcome, error) {
	if len(configs) == 0 {
		return nil, errors.New("analysis: no configurations")
	}
	if e == nil {
		return nil, errors.New("analysis: nil ensemble")
	}
	if !scenario.Valid() {
		return nil, fmt.Errorf("analysis: invalid scenario %d", int(scenario))
	}
	csp := obs.SpanFromContext(ctx).StartChild("analysis.compile")
	v, err := compileUniverse(e, configs, opt)
	csp.End()
	if err != nil {
		return nil, err
	}
	defer obs.Default().StartSpan("analysis.run_configs_ns").End()
	out := make([]Outcome, len(configs))
	err = engine.ForEachCtx(ctx, opt.Workers, len(configs), func(i int) error {
		o, err := runCell(v, configs[i], scenario)
		if err != nil {
			return err
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunMatrix analyzes every configuration under every scenario,
// returning results keyed by scenario in the paper's presentation
// order. All (config, scenario) cells are evaluated in parallel
// against per-config failure matrices compiled once.
func RunMatrix(e DisasterEnsemble, configs []topology.Config) (map[threat.Scenario][]Outcome, error) {
	return RunMatrixOpt(e, configs, Options{})
}

// RunMatrixOpt is RunMatrix with an explicit worker bound.
func RunMatrixOpt(e DisasterEnsemble, configs []topology.Config, opt Options) (map[threat.Scenario][]Outcome, error) {
	return RunMatrixCtx(context.Background(), e, configs, opt)
}

// RunMatrixCtx is RunMatrixOpt with request-scoped tracing, mirroring
// RunConfigsCtx: the compile and the (config, scenario) cell sweep
// become child spans of any trace span carried by ctx.
func RunMatrixCtx(ctx context.Context, e DisasterEnsemble, configs []topology.Config, opt Options) (map[threat.Scenario][]Outcome, error) {
	if len(configs) == 0 {
		return nil, errors.New("analysis: no configurations")
	}
	if e == nil {
		return nil, errors.New("analysis: nil ensemble")
	}
	csp := obs.SpanFromContext(ctx).StartChild("analysis.compile")
	v, err := compileUniverse(e, configs, opt)
	csp.End()
	if err != nil {
		return nil, err
	}
	defer obs.Default().StartSpan("analysis.run_matrix_ns").End()
	scenarios := threat.Scenarios()
	cells := make([]Outcome, len(scenarios)*len(configs))
	err = engine.ForEachCtx(ctx, opt.Workers, len(cells), func(k int) error {
		si, ci := k/len(configs), k%len(configs)
		o, err := runCell(v, configs[ci], scenarios[si])
		if err != nil {
			return err
		}
		cells[k] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[threat.Scenario][]Outcome, len(scenarios))
	for si, sc := range scenarios {
		out[sc] = cells[si*len(configs) : (si+1)*len(configs)]
	}
	return out, nil
}

// SiteFailureProbability returns the fraction of realizations in which
// the asset hosting a site floods — the per-site disaster marginal the
// discussion in §VI-A is built on.
func SiteFailureProbability(e DisasterEnsemble, assetID string) (float64, error) {
	if e == nil {
		return 0, errors.New("analysis: nil ensemble")
	}
	return e.FailureRate(assetID)
}

// StateProbabilities flattens an outcome into per-state probabilities
// in severity order (green, orange, red, gray).
func StateProbabilities(o Outcome) []float64 {
	out := make([]float64, 0, 4)
	for _, s := range opstate.States() {
		out = append(out, o.Profile.Probability(s))
	}
	return out
}

// failureVectorInto fills dst (reusing its capacity) with the failure
// flags of realization r, preferring the ensemble's allocation-free
// append path when it has one.
func failureVectorInto(e DisasterEnsemble, dst []bool, r int, assetIDs []string) ([]bool, error) {
	if ap, ok := e.(engine.VectorAppender); ok {
		return ap.AppendFailureVector(dst[:0], r, assetIDs)
	}
	return e.FailureVector(r, assetIDs)
}
