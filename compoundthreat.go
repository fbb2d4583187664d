// Package compoundthreat is the public API of the compound-threat
// analysis framework: a data-centric toolkit for evaluating the
// resilience of power-grid SCADA architectures to compound threats —
// natural disasters followed by targeted cyberattacks — reproducing
// Bommareddy et al., "Data-Centric Analysis of Compound Threats to
// Critical Infrastructure Control Systems" (DSN-W 2022).
//
// The pipeline mirrors the paper's Figure 5:
//
//  1. a geospatial SCADA topology (control centers, data centers,
//     plants, substations) is combined with
//  2. an ensemble of hurricane realizations (a parametric surge model
//     substitutes for the paper's ADCIRC data) to derive
//     post-disaster system states, then
//  3. a worst-case cyberattacker (server intrusions and site
//     isolations) is applied, and
//  4. the resulting operational state — green, orange, red, or gray —
//     is evaluated per architecture (Table I) and aggregated into
//     outcome probabilities.
//
// Quick start:
//
//	cs, err := compoundthreat.NewOahuCaseStudy(1000)
//	if err != nil { ... }
//	results, err := cs.EvaluateAllFigures()
//	for _, res := range results {
//	    compoundthreat.WriteFigure(os.Stdout, res)
//	}
//
// Beyond the analytical framework, the package exposes the behavioral
// substrate: SimulateSCADA runs a configuration as a live system
// (BFT replication or primary/backup masters over a simulated WAN)
// under a concrete threat injection and measures its operational
// state, validating the analytical rules against running protocols.
package compoundthreat

import (
	"io"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/attack"
	"compoundthreat/internal/hazard"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/placement"
	"compoundthreat/internal/report"
	"compoundthreat/internal/scada"
	"compoundthreat/internal/seismic"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Core domain types, re-exported from the implementation packages.
type (
	// State is an operational state: Green, Orange, Red, or Gray.
	State = opstate.State
	// SystemState is the per-site condition after disaster and attack.
	SystemState = opstate.SystemState
	// ThreatScenario is one of the paper's four threat scenarios.
	ThreatScenario = threat.Scenario
	// Capability is an attacker's intrusion/isolation budget.
	Capability = threat.Capability
	// Config is a SCADA configuration ("2", "2-2", "6", "6-6", "6+6+6"
	// or custom).
	Config = topology.Config
	// Placement binds configurations to control-site assets.
	Placement = topology.Placement
	// Asset is a power-grid asset.
	Asset = assets.Asset
	// Inventory is an asset inventory.
	Inventory = assets.Inventory
	// Ensemble is a hurricane realization ensemble.
	Ensemble = hazard.Ensemble
	// EnsembleConfig parameterizes ensemble generation.
	EnsembleConfig = hazard.EnsembleConfig
	// Outcome is an analyzed (configuration, scenario) profile.
	Outcome = analysis.Outcome
	// Figure identifies one of the paper's evaluation figures.
	Figure = analysis.Figure
	// FigureResult is a fully evaluated figure.
	FigureResult = analysis.FigureResult
	// CaseStudy bundles an ensemble with figure evaluation.
	CaseStudy = analysis.CaseStudy
	// Profile is an operational-state probability profile.
	Profile = stats.Profile
	// AttackResult is the worst-case attacker's outcome.
	AttackResult = attack.Result
	// TerrainConfig parameterizes a custom region terrain model.
	TerrainConfig = terrain.Config
	// TerrainModel is a built terrain model.
	TerrainModel = terrain.Model
	// Ridge, Shelf, Funnel, and Zone refine a terrain model.
	Ridge  = terrain.Ridge
	Shelf  = terrain.Shelf
	Funnel = terrain.Funnel
	Zone   = terrain.Zone
	// SurgeParams tunes the surge solver.
	SurgeParams = surge.Params
	// SimulationParams controls a behavioral SCADA run.
	SimulationParams = scada.Params
	// SimulationScenario is the concrete threat injection for a run.
	SimulationScenario = scada.Scenario
	// SimulationResult is a measured behavioral outcome.
	SimulationResult = scada.Result
	// PlacementRequest parameterizes a placement search.
	PlacementRequest = placement.Request
	// PlacementCandidate is one evaluated placement.
	PlacementCandidate = placement.Candidate
	// AttackerPower models a realistic attacker (§VII extension).
	AttackerPower = attack.Power
	// PowerPoint is one point of an attacker-power sweep.
	PowerPoint = analysis.PowerPoint
	// PowerSweepRequest parameterizes an attacker-power sweep.
	PowerSweepRequest = analysis.PowerSweepRequest
	// DowntimeModel assigns restoration times to outcome causes.
	DowntimeModel = analysis.DowntimeModel
	// DowntimeOutcome is a downtime analysis result.
	DowntimeOutcome = analysis.DowntimeOutcome
	// ExtendedPlacement adds a second data center for four-site
	// configurations.
	ExtendedPlacement = topology.ExtendedPlacement
	// DisasterEnsemble is the disaster-agnostic ensemble view consumed
	// by the analysis pipeline.
	DisasterEnsemble = analysis.DisasterEnsemble
	// SeismicConfig parameterizes earthquake ensemble generation.
	SeismicConfig = seismic.EnsembleConfig
	// SeismicEnsemble is an earthquake realization ensemble.
	SeismicEnsemble = seismic.Ensemble
	// Fragility is a lognormal fragility curve (probabilistic asset
	// failure instead of the paper's hard 0.5 m threshold).
	Fragility = hazard.Fragility
	// FragilityEnsemble overlays fragility-curve failures on a depth
	// ensemble.
	FragilityEnsemble = hazard.FragilityEnsemble
	// DependencyMap lists, per asset, the support assets it requires
	// (infrastructure interdependency).
	DependencyMap = analysis.DependencyMap
	// DependentEnsemble overlays interdependencies on an ensemble.
	DependentEnsemble = analysis.DependentEnsemble
	// AnalysisOptions tunes engine scheduling (worker bound).
	AnalysisOptions = analysis.Options
)

// Operational states in severity order.
const (
	Green  = opstate.Green
	Orange = opstate.Orange
	Red    = opstate.Red
	Gray   = opstate.Gray
)

// The paper's four threat scenarios.
const (
	Hurricane                   = threat.Hurricane
	HurricaneIntrusion          = threat.HurricaneIntrusion
	HurricaneIsolation          = threat.HurricaneIsolation
	HurricaneIntrusionIsolation = threat.HurricaneIntrusionIsolation
)

// Asset types.
const (
	ControlCenterAsset = assets.ControlCenter
	DataCenterAsset    = assets.DataCenter
	PowerPlantAsset    = assets.PowerPlant
	SubstationAsset    = assets.Substation
)

// Well-known Oahu asset IDs.
const (
	HonoluluCC = assets.HonoluluCC
	Waiau      = assets.Waiau
	Kahe       = assets.Kahe
	DRFortress = assets.DRFortress
	AlohaNAP   = assets.AlohaNAP
)

// Scenarios returns the four threat scenarios in presentation order.
func Scenarios() []ThreatScenario { return threat.Scenarios() }

// OahuAssets returns the built-in Oahu power-asset inventory
// (Figure 4 of the paper).
func OahuAssets() *Inventory { return assets.Oahu() }

// OahuTerrain returns the built-in synthetic Oahu terrain model.
func OahuTerrain() *TerrainModel { return terrain.NewOahu() }

// OahuScenario returns the calibrated Category-2 Oahu hurricane
// ensemble configuration (1000 realizations).
func OahuScenario() EnsembleConfig { return hazard.OahuScenario() }

// DefaultSurgeParams returns the calibrated surge solver parameters.
func DefaultSurgeParams() SurgeParams { return surge.DefaultParams() }

// NewTerrain builds a custom region terrain model.
func NewTerrain(cfg TerrainConfig) (*TerrainModel, error) { return terrain.New(cfg) }

// NewInventory builds a custom asset inventory.
func NewInventory(list []Asset) (*Inventory, error) { return assets.NewInventory(list) }

// NewEnsembleFromDepths builds a hazard ensemble directly from
// per-asset depth rows (tests, tools, and loading saved data).
func NewEnsembleFromDepths(cfg EnsembleConfig, assetIDs []string, depths [][]float64) (*Ensemble, error) {
	return hazard.NewEnsembleFromDepths(cfg, assetIDs, depths)
}

// GenerateEnsemble runs a hurricane realization ensemble for a region.
func GenerateEnsemble(tm *TerrainModel, params SurgeParams, inv *Inventory, cfg EnsembleConfig) (*Ensemble, error) {
	gen, err := hazard.NewGenerator(tm, params, inv)
	if err != nil {
		return nil, err
	}
	return gen.Generate(cfg)
}

// NewOahuCaseStudy builds the full Oahu case study. realizations
// overrides the ensemble size when positive (the paper uses 1000).
func NewOahuCaseStudy(realizations int) (*CaseStudy, error) {
	return analysis.NewOahuCaseStudy(realizations)
}

// NewCaseStudy wraps an existing ensemble for figure evaluation.
func NewCaseStudy(e *Ensemble) (*CaseStudy, error) { return analysis.NewCaseStudy(e) }

// PaperFigures returns the paper's six evaluation figures.
func PaperFigures() []Figure { return analysis.PaperFigures() }

// FigureByID returns the paper figure with the given number (6-11).
func FigureByID(id int) (Figure, error) { return analysis.FigureByID(id) }

// StandardConfigs returns the paper's five configurations bound to a
// placement: "2", "2-2", "6", "6-6", "6+6+6".
func StandardConfigs(p Placement) ([]Config, error) { return topology.StandardConfigs(p) }

// Analyze evaluates one configuration under one threat scenario across
// an ensemble.
func Analyze(e *Ensemble, cfg Config, sc ThreatScenario) (Outcome, error) {
	return analysis.Run(e, cfg, sc)
}

// AnalyzeConfigs evaluates several configurations under one scenario.
func AnalyzeConfigs(e *Ensemble, configs []Config, sc ThreatScenario) ([]Outcome, error) {
	return analysis.RunConfigs(e, configs, sc)
}

// AnalyzeOpt is Analyze with an explicit worker bound (0 = GOMAXPROCS).
func AnalyzeOpt(e *Ensemble, cfg Config, sc ThreatScenario, opt AnalysisOptions) (Outcome, error) {
	return analysis.RunOpt(e, cfg, sc, opt)
}

// AnalyzeConfigsOpt is AnalyzeConfigs with an explicit worker bound.
func AnalyzeConfigsOpt(e *Ensemble, configs []Config, sc ThreatScenario, opt AnalysisOptions) ([]Outcome, error) {
	return analysis.RunConfigsOpt(e, configs, sc, opt)
}

// AnalyzeMatrix evaluates every configuration under every threat
// scenario, parallelizing the (config, scenario) cells.
func AnalyzeMatrix(e *Ensemble, configs []Config) (map[ThreatScenario][]Outcome, error) {
	return analysis.RunMatrix(e, configs)
}

// WorstCaseAttack applies the paper's worst-case attacker to a
// post-disaster state.
func WorstCaseAttack(cfg Config, flooded []bool, cap Capability) (AttackResult, error) {
	return attack.WorstCase(cfg, flooded, cap)
}

// WriteFigure renders an evaluated figure as a terminal table with
// stacked probability bars.
func WriteFigure(w io.Writer, res FigureResult) error { return report.WriteFigure(w, res) }

// WriteFigureCSV emits an evaluated figure as CSV.
func WriteFigureCSV(w io.Writer, res FigureResult) error { return report.WriteFigureCSV(w, res) }

// SimulateSCADA runs a configuration as a live system on the
// discrete-event simulator under a concrete threat injection and
// classifies the measured operational state.
func SimulateSCADA(cfg Config, sc SimulationScenario, p SimulationParams) (SimulationResult, error) {
	return scada.Run(cfg, sc, p)
}

// DefaultSimulationParams returns the standard behavioral-run timings.
func DefaultSimulationParams() SimulationParams { return scada.DefaultParams() }

// SearchPlacements evaluates every (second site, data center) pair of
// control-site candidates and returns them ranked best first.
func SearchPlacements(req PlacementRequest) ([]PlacementCandidate, error) {
	return placement.SearchPairs(req)
}

// SearchSecondSites varies only the second control center with the
// data center fixed — the paper's §VII Waiau-vs-Kahe comparison.
func SearchSecondSites(req PlacementRequest, dataCenter string) ([]PlacementCandidate, error) {
	return placement.SearchSecondSite(req, dataCenter)
}

// RunPowerSweep traces how a configuration's operational profile
// degrades as the attacker's per-attempt success probability grows
// from 0 (hurricane only) to 1 (the paper's worst case).
func RunPowerSweep(req PowerSweepRequest) ([]PowerPoint, error) {
	return analysis.RunPowerSweep(req)
}

// WritePowerSweep renders an attacker-power sweep as a table.
func WritePowerSweep(w io.Writer, configName string, points []PowerPoint) error {
	return report.WritePowerSweep(w, configName, points)
}

// ExtendedConfigs returns the extended configuration family for a
// placement: the five standard configurations plus "4", "4-4", and
// "3+3+3+3" from Babay et al.
func ExtendedConfigs(p ExtendedPlacement) ([]Config, error) {
	return topology.ExtendedConfigs(p)
}

// DefaultDowntimeModel returns restoration times at the scales the
// paper cites (minutes / hours / days).
func DefaultDowntimeModel() DowntimeModel { return analysis.DefaultDowntimeModel() }

// OahuSeismicScenario returns the Oahu earthquake scenario: a south-
// flank offshore fault producing distance-correlated failures — a
// different correlation structure than the hurricane's.
func OahuSeismicScenario() SeismicConfig { return seismic.OahuScenario() }

// GenerateSeismicEnsemble runs an earthquake realization ensemble
// against an inventory. The result plugs into Analyze, placement
// search, downtime, and power sweeps via the DisasterEnsemble
// interface.
func GenerateSeismicEnsemble(cfg SeismicConfig, inv *Inventory) (*SeismicEnsemble, error) {
	return seismic.Generate(cfg, inv)
}

// WithFragility wraps a depth ensemble with lognormal fragility curves
// (def for every asset, perAsset overrides), replacing the hard flood
// threshold with probabilistic failures in the style of the paper's
// ref [8].
func WithFragility(base *Ensemble, def Fragility, perAsset map[string]Fragility, seed int64) (*FragilityEnsemble, error) {
	return hazard.NewFragilityEnsemble(base, def, perAsset, seed)
}

// WithDependencies overlays an infrastructure dependency map on any
// disaster ensemble: an asset is effectively failed when it fails
// directly or any (transitive) support asset fails. This models the
// SCADA-communications interdependence the paper's related work
// ([18]-[20]) studies.
func WithDependencies(base DisasterEnsemble, deps DependencyMap) (*DependentEnsemble, error) {
	return analysis.WithDependencies(base, deps)
}

// AnalyzeDowntime converts a configuration's outcome distribution into
// expected downtime per hurricane event.
func AnalyzeDowntime(e *Ensemble, cfg Config, sc ThreatScenario, m DowntimeModel) (DowntimeOutcome, error) {
	return analysis.RunDowntime(e, cfg, sc, m)
}

// WriteDowntime renders downtime results as a table.
func WriteDowntime(w io.Writer, outcomes []DowntimeOutcome) error {
	return report.WriteDowntime(w, outcomes)
}
