package engine

// The evaluation kernel. The worst-case attacker (paper §V-B) is a
// pure function of three things: the configuration's shape, the
// attacker's capability, and which of the configuration's sites are
// flooded. So the whole attack model of one (shape, capability) pair
// is a table with one entry per flood mask, built eagerly with 2^S
// attack.Analyzer evaluations, and every placement of that shape
// shares it. A cell then resolves its S site columns once and, per
// distinct row of a compressed matrix, does
//
//	counts[table[pattern]] += weight
//
// Tables caches the tables; Cell is the kernel. Above maxTableSites
// sites no table is built, and a Cell evaluates each distinct row
// through the analyzer instead. The kernel is cross-checked
// bit-identical to the analyzer over exhaustive small universes in
// kernel_test.go.
//
// CountKernel is the incremental flooded-count form k-site search
// needs: its placements reach 64 sites, where no 2^S table fits, so
// it keeps the (S+1)-entry StateByCount table of a symmetric family.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"compoundthreat/internal/attack"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// maxTableSites bounds the attack table (2^S entries). Every
// configuration family in this module has at most four sites; above
// the bound a cell evaluates every distinct row through the analyzer,
// which is still correct, only slower.
const maxTableSites = 16

// shape keys one attack table: every configuration field the
// worst-case outcome depends on, plus the attacker's capability. Site
// roles are fixed by the architecture (topology.Config.Validate) and
// ColdActivationDelay does not enter the operational state, so
// neither is part of it; asset IDs are what placements of one shape
// differ in.
type shape struct {
	arch       topology.Architecture
	f, k       int
	minActive  int
	capability threat.Capability
	sites      int
	replicas   [maxTableSites]int
}

// set makes s the table key of cfg, which has at most maxTableSites
// sites, under capability.
func (s *shape) set(cfg *topology.Config, capability threat.Capability) {
	s.arch = cfg.Arch
	s.f, s.k, s.minActive = cfg.IntrusionsTolerated, cfg.RecoverySlots, cfg.MinActiveSites
	s.capability = capability
	s.sites = len(cfg.Sites)
	for i, site := range cfg.Sites {
		s.replicas[i] = site.Replicas
	}
}

// matches reports whether cfg under capability has shape s. Lookups
// compare in place rather than building a key: they sit on every
// cell's path.
func (s *shape) matches(cfg *topology.Config, capability threat.Capability) bool {
	if s.arch != cfg.Arch || s.f != cfg.IntrusionsTolerated || s.k != cfg.RecoverySlots ||
		s.minActive != cfg.MinActiveSites || s.capability != capability ||
		s.sites != len(cfg.Sites) {
		return false
	}
	for i, r := range s.replicas[:s.sites] {
		if cfg.Sites[i].Replicas != r {
			return false
		}
	}
	return true
}

// table is one published attack table: states[m] is the worst-case
// outcome of flood mask m. Tables are immutable once published.
type table struct {
	key    shape
	states []opstate.State
	next   *table // the table published before this one
	// inline backs states for tables of up to four sites, which covers
	// every configuration family in this module, so a build allocates
	// once.
	inline [16]opstate.State
}

// Tables is the shared cache of attack tables, one per (configuration
// shape, capability), each built on first use. Whoever evaluates many
// cells holds one: the server for its lifetime, a compiled analysis
// view, a placement search. Safe for concurrent use. Lookups take no
// lock: the tables form a list, newest first, that builds only ever
// prepend to, and a process meets a handful of shapes, so walking it
// is cheaper than locking a map.
type Tables struct {
	head atomic.Pointer[table]
	mu   sync.Mutex       // serializes builds
	an   *attack.Analyzer // builds tables; guarded by mu
	// Observability counters, resolved once at construction; nil (and
	// therefore free) when instrumentation is disabled.
	hits          *obs.Counter
	misses        *obs.Counter
	fallbackEvals *obs.Counter
	realizations  *obs.Counter
}

// NewTables returns an empty table cache.
func NewTables() *Tables {
	t := &Tables{}
	if rec := obs.Default(); rec != nil {
		t.hits = rec.Counter("engine.memo_hits")
		t.misses = rec.Counter("engine.memo_misses")
		t.fallbackEvals = rec.Counter("engine.fallback_evals")
		t.realizations = rec.Counter("engine.realizations")
	}
	return t
}

// find returns the published table of cfg's shape under capability,
// or nil.
func (t *Tables) find(cfg *topology.Config, capability threat.Capability) *table {
	for tb := t.head.Load(); tb != nil; tb = tb.next {
		if tb.key.matches(cfg, capability) {
			return tb
		}
	}
	return nil
}

// table returns the attack table of cfg's shape under capability,
// building it from cfg on first use: every flood mask evaluated once,
// under the build lock. The build validates cfg and capability
// (attack.Analyzer.Reset); a failed build is not cached.
func (t *Tables) table(cfg *topology.Config, capability threat.Capability) ([]opstate.State, error) {
	if tb := t.find(cfg, capability); tb != nil {
		t.hits.Add(1)
		return tb.states, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tb := t.find(cfg, capability); tb != nil {
		t.hits.Add(1)
		return tb.states, nil
	}
	var err error
	if t.an == nil {
		t.an, err = attack.NewAnalyzer(*cfg, capability)
	} else {
		err = t.an.Reset(*cfg, capability)
	}
	if err != nil {
		return nil, err
	}
	tb := new(table)
	tb.key.set(cfg, capability)
	if size := 1 << uint(len(cfg.Sites)); size <= len(tb.inline) {
		tb.states = tb.inline[:size]
	} else {
		tb.states = make([]opstate.State, size)
	}
	for mask := range tb.states {
		if tb.states[mask], err = t.an.EvaluateMask(uint64(mask)); err != nil {
			return nil, err
		}
	}
	tb.next = t.head.Load()
	t.head.Store(tb)
	t.misses.Add(1)
	return tb.states, nil
}

// Cell is one (configuration, capability) cell bound to a compressed
// matrix: its shape's attack table and its site columns. Add is the
// evaluation kernel. A Cell only reads its fields, so any number of
// goroutines may Add through one Cell over disjoint row ranges.
type Cell struct {
	t     *Tables
	cm    *CompressedMatrix
	table []opstate.State // nil when the configuration has no table
	n     int             // sites
	cols  [maxTableSites]int
	wide  *wideCell
}

// wideCell is a configuration with no attack table, evaluated row by
// row through the analyzer.
type wideCell struct {
	cfg        topology.Config
	capability threat.Capability
	cols       []int
}

// Cell binds cfg to cm: it looks up (or builds) the table of cfg's
// shape under capability and resolves cfg's site assets to cm's
// columns. cfg must be valid (topology.Config.Validate): callers
// validate each configuration once, and the kernel does not validate
// again per cell.
func (t *Tables) Cell(cm *CompressedMatrix, cfg topology.Config, capability threat.Capability) (Cell, error) {
	var c Cell
	err := t.bind(&c, cm, &cfg, capability)
	return c, err
}

// Counts evaluates one whole cell: Cell, then Add over every distinct
// row of cm.
func (t *Tables) Counts(cm *CompressedMatrix, cfg topology.Config, capability threat.Capability) (Counts, error) {
	var (
		c      Cell
		counts Counts
	)
	err := t.bind(&c, cm, &cfg, capability)
	if err == nil {
		err = c.Add(&counts, 0, cm.DistinctRows())
	}
	return counts, err
}

// bind is Cell in place: the hot path fills the caller's Cell rather
// than copying one out.
func (t *Tables) bind(c *Cell, cm *CompressedMatrix, cfg *topology.Config, capability threat.Capability) error {
	c.t, c.cm = t, cm
	if len(cfg.Sites) > maxTableSites {
		cols := make([]int, len(cfg.Sites))
		if err := columns(cm, cfg, cols); err != nil {
			return err
		}
		c.wide = &wideCell{cfg: *cfg, capability: capability, cols: cols}
		return nil
	}
	c.n = len(cfg.Sites)
	if err := columns(cm, cfg, c.cols[:c.n]); err != nil {
		return err
	}
	tbl, err := t.table(cfg, capability)
	c.table = tbl
	return err
}

// columns resolves cfg's site assets to cm's columns, into cols.
func columns(cm *CompressedMatrix, cfg *topology.Config, cols []int) error {
	for j, s := range cfg.Sites {
		col, ok := cm.src.Column(s.AssetID)
		if !ok {
			return fmt.Errorf("engine: asset %q not in failure matrix", s.AssetID)
		}
		cols[j] = col
	}
	return nil
}

// Add classifies distinct rows [lo, hi) into counts, adding each
// row's multiplicity to the bucket of its flood pattern's outcome.
// Because the attacker is a pure function of the flooded pattern, the
// result is bit-identical to evaluating every realization the rows
// stand for. The table loop performs no allocations and cannot fail;
// only the row-by-row path for a configuration without a table, whose
// analyzer validates the configuration, returns errors.
func (c *Cell) Add(counts *Counts, lo, hi int) error {
	if c.wide != nil {
		return c.wide.add(c.t, c.cm, counts, lo, hi)
	}
	cm, cols := c.cm, c.cols[:c.n]
	covered := 0
	for i := lo; i < hi; i++ {
		w := cm.weights[i]
		counts[c.table[cm.Pattern(i, cols)]] += w
		covered += w
	}
	c.t.realizations.Add(int64(covered))
	return nil
}

// add is Cell.Add for a configuration without a table: each distinct
// row goes through the analyzer.
func (w *wideCell) add(t *Tables, cm *CompressedMatrix, counts *Counts, lo, hi int) error {
	an, err := attack.NewAnalyzer(w.cfg, w.capability)
	if err != nil {
		return err
	}
	flood := make([]bool, 0, len(w.cols))
	covered := 0
	for i := lo; i < hi; i++ {
		flood = cm.Gather(flood[:0], i, w.cols)
		s, err := an.Evaluate(flood)
		if err != nil {
			return err
		}
		counts[s] += cm.weights[i]
		covered += cm.weights[i]
	}
	t.fallbackEvals.Add(int64(hi - lo))
	t.realizations.Add(int64(covered))
	return nil
}

// ErrNotSymmetric reports a configuration whose outcome is not a pure
// function of its flooded-site count.
var ErrNotSymmetric = errors.New("engine: configuration outcome is not a pure function of flooded-site count")

// SymmetricConfig reports whether the worst-case outcome of cfg
// depends only on the *number* of flooded sites. SingleSite trivially
// does. ActiveReplication with a uniform replica count does too: every
// greedy-attack rule (compromise placement, isolation order, intrusion
// spending) and the site-quorum check count sites without
// distinguishing them. PrimaryBackup does not — a flooded cold backup
// is harmless while a flooded primary costs the activation delay — and
// neither does a non-uniform replica layout, where intrusion packing
// depends on which sites survive.
func SymmetricConfig(cfg topology.Config) bool {
	switch cfg.Arch {
	case topology.SingleSite:
		return len(cfg.Sites) == 1
	case topology.ActiveReplication:
		if len(cfg.Sites) == 0 {
			return false
		}
		r := cfg.Sites[0].Replicas
		for _, s := range cfg.Sites[1:] {
			if s.Replicas != r {
				return false
			}
		}
		return true
	}
	return false
}

// StateByCount tabulates the worst-case operational state of a
// symmetric configuration by flooded-site count: entry c is the
// outcome with exactly c of the configuration's sites flooded. The
// table is the entire attack model CountKernel needs: S+1 analyzer
// evaluations, for placements of up to 64 sites. The configuration and
// capability are validated here, once.
func StateByCount(cfg topology.Config, capability threat.Capability) ([]opstate.State, error) {
	if !SymmetricConfig(cfg) {
		return nil, ErrNotSymmetric
	}
	an, err := attack.NewAnalyzer(cfg, capability)
	if err != nil {
		return nil, err
	}
	out := make([]opstate.State, len(cfg.Sites)+1)
	for c := range out {
		// The canonical c-count pattern: the first c sites flooded.
		s, err := an.EvaluateMask(uint64(1)<<uint(c) - 1)
		if err != nil {
			return nil, err
		}
		out[c] = s
	}
	return out, nil
}

// CountKernel is the incremental flood-count view a k-site search
// needs. It extracts each candidate's column as a bitset over the
// distinct rows and maintains the per-row flooded-site count of a
// placement grown and shrunk one candidate at a time (Add/Remove).
// CountsWith scores "current placement plus one more candidate"
// without mutating it — the greedy gain evaluation — and is safe to
// call from concurrent goroutines as long as no Add, Remove, or Clear
// runs concurrently.
type CountKernel struct {
	cm    *CompressedMatrix
	cols  [][]uint64 // per candidate: failure bitset over distinct rows
	count []uint16   // flooded sites per distinct row, current placement
}

// NewCountKernel builds the per-candidate bitsets for the given matrix
// columns. Candidate j of the kernel is cols[j].
func NewCountKernel(cm *CompressedMatrix, cols []int) (*CountKernel, error) {
	d := cm.DistinctRows()
	words := (d + 63) / 64
	ck := &CountKernel{cm: cm, count: make([]uint16, d)}
	ck.cols = make([][]uint64, len(cols))
	backing := make([]uint64, words*len(cols))
	for j, col := range cols {
		if col < 0 || col >= len(cm.src.ids) {
			return nil, fmt.Errorf("engine: column %d out of range [0, %d)", col, len(cm.src.ids))
		}
		cb := backing[j*words : (j+1)*words]
		w, bit := col>>6, uint64(1)<<uint(col&63)
		for i := 0; i < d; i++ {
			if cm.bits[i*cm.stride+w]&bit != 0 {
				cb[i>>6] |= 1 << uint(i&63)
			}
		}
		ck.cols[j] = cb
	}
	return ck, nil
}

// Matrix returns the compressed matrix the kernel runs over.
func (ck *CountKernel) Matrix() *CompressedMatrix { return ck.cm }

// Candidates returns the number of candidate columns.
func (ck *CountKernel) Candidates() int { return len(ck.cols) }

// FloodBit returns 1 when candidate j is flooded in distinct row i.
func (ck *CountKernel) FloodBit(j, i int) uint16 {
	return uint16(ck.cols[j][i>>6] >> uint(i&63) & 1)
}

// FloodedCounts returns the live per-distinct-row flooded counts of
// the current placement. Read-only; valid until the next Add, Remove,
// or Clear.
func (ck *CountKernel) FloodedCounts() []uint16 { return ck.count }

// Add floods candidate j in the current placement.
func (ck *CountKernel) Add(j int) {
	cb := ck.cols[j]
	for i := range ck.count {
		ck.count[i] += uint16(cb[i>>6] >> uint(i&63) & 1)
	}
}

// Remove undoes Add(j).
func (ck *CountKernel) Remove(j int) {
	cb := ck.cols[j]
	for i := range ck.count {
		ck.count[i] -= uint16(cb[i>>6] >> uint(i&63) & 1)
	}
}

// Clear empties the current placement.
func (ck *CountKernel) Clear() {
	for i := range ck.count {
		ck.count[i] = 0
	}
}

// Counts classifies the current placement's distinct rows into counts
// through a StateByCount table for the placement's size.
func (ck *CountKernel) Counts(byCount []opstate.State, counts *Counts) {
	weights := ck.cm.weights
	for i, c := range ck.count {
		counts[byCount[c]] += weights[i]
	}
}

// CountsWith is Counts for the current placement plus candidate j,
// without mutating the placement. byCount must cover size+1 sites.
func (ck *CountKernel) CountsWith(j int, byCount []opstate.State, counts *Counts) {
	weights := ck.cm.weights
	cb := ck.cols[j]
	for i, c := range ck.count {
		c += uint16(cb[i>>6] >> uint(i&63) & 1)
		counts[byCount[c]] += weights[i]
	}
}
