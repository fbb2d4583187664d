package engine

import (
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/stats"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// Counts is a fixed-size operational-state histogram, indexed by
// opstate.State. It is the allocation-free accumulator of the
// realization loop; convert to a stats.Profile once per cell.
type Counts [int(opstate.Gray) + 1]int

// Add merges other into c.
func (c *Counts) Add(other *Counts) {
	for i, n := range other {
		c[i] += n
	}
}

// Total returns the number of recorded outcomes.
func (c *Counts) Total() int {
	var t int
	for _, n := range c {
		t += n
	}
	return t
}

// Profile converts the histogram to a stats.Profile, adding states in
// severity order so the result is identical to sequential accumulation.
func (c *Counts) Profile() *stats.Profile {
	p := stats.NewProfile()
	for _, s := range opstate.States() {
		p.AddN(s, c[s])
	}
	return p
}

// CellCountsCompressed evaluates one (configuration, capability) cell
// over a compressed view with a table cache of its own: every distinct
// pattern is classified once and weighted by its multiplicity, so the
// cell costs O(distinct rows) instead of O(realizations). The
// distinct-row range is split into per-worker chunks whose histograms
// merge in fixed index order, so the result is identical for every
// worker count and bit-identical to walking every realization. The
// fresh cache builds its one table from cfg, which validates cfg.
func CellCountsCompressed(cm *CompressedMatrix, cfg topology.Config, capability threat.Capability, workers int) (Counts, error) {
	var total Counts
	cell, err := NewTables().Cell(cm, cfg, capability)
	if err != nil {
		return total, err
	}
	workers = Workers(workers)
	if workers <= 1 || cm.DistinctRows() < 2*workers {
		err = cell.Add(&total, 0, cm.DistinctRows())
		return total, err
	}
	parts := chunks(cm.DistinctRows(), workers)
	results := make([]Counts, len(parts))
	err = ForEach(workers, len(parts), func(i int) error {
		return cell.Add(&results[i], parts[i].lo, parts[i].hi)
	})
	if err != nil {
		return Counts{}, err
	}
	for i := range results {
		total.Add(&results[i])
	}
	return total, nil
}
