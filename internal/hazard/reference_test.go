package hazard

// The reference ensemble generator. It lives in a test file because it
// reads the generator's unexported plan; production code runs only
// Generate.

import (
	"context"
	"fmt"

	"compoundthreat/internal/wind"
)

// GenerateReference runs the same ensemble as Generate through the
// per-consumer path: per realization, surge.Solver.Inundation scans the
// track for the site list and RegionPeak re-scans it per zone. It is
// the independent reference implementation that Generate is
// cross-checked bit-identical against, and the baseline of the
// generation benchmarks.
func (g *Generator) GenerateReference(cfg EnsembleConfig) (*Ensemble, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := g.compilePlan()
	if err != nil {
		return nil, err
	}
	e := newEnsembleShell(cfg, p.ids)
	err = runRealizations(context.Background(), generateWorkers(cfg), cfg.Realizations, func() func(int) error {
		return func(r int) error {
			tr, err := realizationTrack(cfg, r)
			if err != nil {
				return fmt.Errorf("realization %d: %w", r, err)
			}
			row := g.solver.Inundation(tr, p.sites)
			// Re-evaluate zone assets against their zone's common water
			// surface.
			var zoneEta []float64
			for i := range row {
				z := p.zoneOf[i]
				if z < 0 {
					continue
				}
				if zoneEta == nil {
					zoneEta = g.zonePeaks(tr)
				}
				depth := zoneEta[z]*p.decay[i] - p.sites[i].GroundElevationMeters
				if depth < 0 {
					depth = 0
				}
				row[i] = depth
			}
			copy(e.depths[r], row)
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	e.buildFailureColumns()
	return e, nil
}

// zonePeaks evaluates every zone's common water surface for the track.
func (g *Generator) zonePeaks(tr *wind.Track) []float64 {
	out := make([]float64, g.tm.NumZones())
	for z := range out {
		center, radius, err := g.tm.ZoneGeometry(z)
		if err != nil {
			continue // unreachable: z ranges over NumZones
		}
		out[z] = g.solver.RegionPeak(tr, center, radius)
	}
	return out
}
