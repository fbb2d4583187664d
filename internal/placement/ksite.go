package placement

// k-site placement search: choose k control-site locations out of a
// candidate universe to maximize a linear objective over the
// operational-state distribution. Pair enumeration (SearchPairs) is
// O(C²) and tops out at tens of candidates; SearchK scales to
// thousands by running entirely on the compressed pattern space with
// the engine's word-parallel kernels:
//
//   - enumerate: compile + deduplicate the candidate-universe matrix
//     once, extract per-candidate column bitsets (engine.CountKernel);
//   - bound: tabulate the worst-case outcome per flooded-site count
//     (engine.StateByCount) for every placement size, and — for exact
//     search — suffix flooded-count tables for the bound;
//   - evaluate: lazy-greedy (CELF-style priority queue) and, when
//     requested, branch-and-bound to the provable optimum seeded with
//     the greedy incumbent;
//   - rank: score the chosen set and assemble the outcome profile.
//
// Scores are compared as raw weighted pattern counts (integers scaled
// by the objective weights, summed in fixed state order), so exact
// search is bit-identical to brute-force enumeration; the normalized
// probability-scale score is derived only at the end.

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	"compoundthreat/internal/analysis"
	"compoundthreat/internal/assets"
	"compoundthreat/internal/engine"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/opstate"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// StateWeights is the linear objective of a k-site search: a
// placement's raw score is Σ weights[state] · patterns(state). The
// zero value scores everything 0; use GreenWeights or
// AvailabilityWeights for the standard objectives.
type StateWeights [int(opstate.Gray) + 1]float64

// GreenWeights scores by the probability of full operation — the
// StateWeights form of GreenProbability.
var GreenWeights = StateWeights{opstate.Green: 1}

// AvailabilityWeights gives orange half credit — the StateWeights form
// of AvailabilityWeighted.
var AvailabilityWeights = StateWeights{opstate.Green: 1, opstate.Orange: 0.5}

// score returns the raw weighted sum, accumulating in fixed state
// order so equal histograms always produce the identical float — the
// property the exact-search bit-identity guarantee rests on.
func (w *StateWeights) score(c *engine.Counts) float64 {
	var s float64
	for _, st := range opstate.States() {
		s += w[st] * float64(c[st])
	}
	return s
}

func (w *StateWeights) isZero() bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// ErrTooManyCandidates is returned (wrapped with the counts) when the
// candidate universe exceeds KRequest.MaxCandidates.
var ErrTooManyCandidates = errors.New("placement: candidate universe exceeds MaxCandidates")

// KProgress is a periodic snapshot of a running k-site search.
type KProgress struct {
	// Phase is "greedy" or "exact".
	Phase string
	// Evaluated counts fully scored placements so far.
	Evaluated int64
	// Pruned counts branch-and-bound subtrees cut by the bound.
	Pruned int64
	// BestScore is the best normalized score so far (0 before the first
	// full placement is scored).
	BestScore float64
	// BestSites is the best site set so far, sorted by asset ID.
	BestSites []string
}

// KRequest parameterizes a k-site placement search.
type KRequest struct {
	// Ensemble is the disaster realization ensemble.
	Ensemble analysis.DisasterEnsemble
	// Inventory supplies the default candidate set (its control-site
	// candidates) when Candidates is nil.
	Inventory *assets.Inventory
	// Candidates overrides the candidate asset IDs (a synthetic
	// universe, a pre-filtered list). The search sorts and validates
	// them; results are independent of the given order.
	Candidates []string
	// K is the number of sites to place (1..64).
	K int
	// Scenario is the threat scenario to optimize for.
	Scenario threat.Scenario
	// Weights is the linear objective (zero value = GreenWeights).
	Weights StateWeights
	// Build maps a sorted site set to the configuration under study
	// (nil = topology.NewConfigKSite). The family must be symmetric —
	// outcome a pure function of the flooded-site count, see
	// engine.SymmetricConfig — and equal-size site sets must map to
	// identically shaped configurations.
	Build func(sites []string) topology.Config
	// Workers bounds parallelism (0 = runtime.GOMAXPROCS(0)).
	Workers int
	// Exact runs branch-and-bound to the provable optimum instead of
	// stopping at the greedy heuristic.
	Exact bool
	// MaxCandidates rejects universes larger than this bound when > 0,
	// so an interactive caller cannot accidentally submit an unbounded
	// search.
	MaxCandidates int
	// Progress, when non-nil, receives periodic snapshots (phase
	// transitions, greedy selections, and a throttled heartbeat during
	// long scans). Called from the searching goroutine.
	Progress func(KProgress)
}

// KResult is the outcome of a k-site search.
type KResult struct {
	// Sites is the chosen placement, sorted by asset ID.
	Sites []string
	// Score is the normalized objective value (raw score over
	// realizations; equals the green probability under GreenWeights).
	Score float64
	// Outcome is the full evaluated profile of the chosen placement.
	Outcome analysis.Outcome
	// Evaluated counts fully scored placements: greedy gain evaluations
	// plus exact-search leaves.
	Evaluated int64
	// Pruned counts branch-and-bound subtrees cut by the bound.
	Pruned int64
	// Exact reports whether Sites is the provable optimum.
	Exact bool
	// Candidates is the universe size after validation.
	Candidates int
	// DistinctPatterns is the deduplicated flood-pattern count the
	// kernels ran over.
	DistinctPatterns int
}

func (r *KRequest) setDefaults() {
	if r.Weights.isZero() {
		r.Weights = GreenWeights
	}
	if r.Build == nil {
		r.Build = topology.NewConfigKSite
	}
}

func (r *KRequest) validate() error {
	switch {
	case r.Ensemble == nil:
		return errors.New("placement: nil ensemble")
	case r.K < 1:
		return errors.New("placement: K must be at least 1")
	case r.K > 64:
		return fmt.Errorf("placement: K = %d exceeds the 64-site limit", r.K)
	case !r.Scenario.Valid():
		return fmt.Errorf("placement: invalid scenario %d", int(r.Scenario))
	case r.Workers < 0:
		return errors.New("placement: negative workers")
	case r.Inventory == nil && len(r.Candidates) == 0:
		return errors.New("placement: need an inventory or explicit candidates")
	}
	return nil
}

// candidateIDs resolves, sorts, and validates the candidate universe.
func (r *KRequest) candidateIDs() ([]string, error) {
	var ids []string
	if len(r.Candidates) > 0 {
		ids = append(ids, r.Candidates...)
	} else {
		for _, a := range r.Inventory.ControlSiteCandidates() {
			ids = append(ids, a.ID)
		}
	}
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("placement: duplicate candidate %q", ids[i])
		}
	}
	if len(ids) < r.K {
		return nil, fmt.Errorf("placement: %d candidates for K = %d", len(ids), r.K)
	}
	if len(ids) > 1<<16-1 {
		return nil, fmt.Errorf("placement: %d candidates exceed the supported maximum", len(ids))
	}
	if r.MaxCandidates > 0 && len(ids) > r.MaxCandidates {
		return nil, fmt.Errorf("%w: %d candidates, limit %d", ErrTooManyCandidates, len(ids), r.MaxCandidates)
	}
	return ids, nil
}

// Validate checks the request and resolves its candidate universe —
// sorted, deduplicated, bounds-checked — without searching. Callers
// that submit searches asynchronously (the serving layer's job
// endpoint) use it to fail malformed requests synchronously and to
// key coalescing on the resolved universe.
func (r KRequest) Validate() ([]string, error) {
	r.setDefaults()
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r.candidateIDs()
}

// SearchK runs a k-site placement search to completion.
func SearchK(req KRequest) (*KResult, error) {
	return SearchKCtx(context.Background(), req)
}

// SearchKCtx is SearchK with cancellation: the search checks ctx
// between phases and periodically inside the evaluate loops, returning
// the (wrapped) context error when it fires. The four phases —
// enumerate, bound, evaluate, rank — are recorded as child spans of
// any trace carried by ctx and as aggregate recorder spans.
func SearchKCtx(ctx context.Context, req KRequest) (*KResult, error) {
	req.setDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	rec := obs.Default()
	defer rec.StartSpan("placement.ksearch_ns").End()
	root := obs.SpanFromContext(ctx)
	s := &kSearcher{
		req:       req,
		gainEvals: rec.Counter("placement.greedy_gain_evals"),
		prunedC:   rec.Counter("placement.bound_pruned"),
	}

	if err := phase(ctx, root, rec, "enumerate", "placement.ksearch.enumerate_ns", s.enumerate); err != nil {
		return nil, err
	}
	if err := phase(ctx, root, rec, "bound", "placement.ksearch.bound_ns", s.buildTables); err != nil {
		return nil, err
	}
	if err := phase(ctx, root, rec, "evaluate", "placement.ksearch.evaluate_ns", s.evaluate); err != nil {
		return nil, err
	}
	var res *KResult
	err := phase(ctx, root, rec, "rank", "placement.ksearch.rank_ns", func(context.Context) error {
		res = s.rank()
		return nil
	})
	return res, err
}

// phase runs one search phase under its trace span (name) and its
// recorder span (metric, a literal so the name costs no allocation),
// checking cancellation on entry.
func phase(ctx context.Context, root *obs.TraceSpan, rec *obs.Recorder, name, metric string, fn func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("placement: search canceled: %w", err)
	}
	sp := root.StartChild(name)
	rsp := rec.StartSpan(metric)
	err := fn(ctx)
	rsp.End()
	sp.End()
	return err
}

// kSearcher carries one search's state across phases.
type kSearcher struct {
	req   KRequest
	cands []string
	cm    *engine.CompressedMatrix
	ck    *engine.CountKernel
	// byCount[t] is the StateByCount table for placements of size t
	// (1 <= t <= K).
	byCount  [][]opstate.State
	bestSet  []int // candidate indices, sorted ascending
	bestRaw  float64
	exact    bool
	evals    int64
	pruned   int64
	lastBeat int64

	gainEvals *obs.Counter
	prunedC   *obs.Counter
}

// enumerate resolves the candidate universe and compiles it into the
// compressed pattern space and per-candidate column bitsets.
func (s *kSearcher) enumerate(context.Context) error {
	cands, err := s.req.candidateIDs()
	if err != nil {
		return err
	}
	m, err := engine.NewFailureMatrix(s.req.Ensemble, cands)
	if err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	s.cands = cands
	s.cm = engine.Compress(m, s.req.Workers)
	cols := make([]int, len(cands))
	for i := range cols {
		cols[i] = i
	}
	s.ck, err = engine.NewCountKernel(s.cm, cols)
	return err
}

// buildTables tabulates the outcome-by-flooded-count tables for every
// placement size — the entire attack model of the search.
func (s *kSearcher) buildTables(context.Context) error {
	capability := s.req.Scenario.Capability()
	s.byCount = make([][]opstate.State, s.req.K+1)
	for t := 1; t <= s.req.K; t++ {
		cfg := s.req.Build(s.cands[:t])
		tbl, err := engine.StateByCount(cfg, capability)
		if err != nil {
			return fmt.Errorf("placement: k-site search needs a symmetric configuration family: %w", err)
		}
		if len(tbl) != t+1 {
			return fmt.Errorf("placement: Build returned %d sites for a %d-site set", len(tbl)-1, t)
		}
		s.byCount[t] = tbl
	}
	return nil
}

// evaluate runs the greedy search and, when requested, branch-and-
// bound seeded with the greedy incumbent.
func (s *kSearcher) evaluate(ctx context.Context) error {
	chosen, raw, err := s.greedy(ctx)
	if err != nil {
		return err
	}
	sort.Ints(chosen)
	s.bestSet, s.bestRaw = chosen, raw
	if !s.req.Exact {
		return nil
	}
	s.ck.Clear()
	if err := s.branchAndBound(ctx); err != nil {
		return err
	}
	s.exact = true
	return nil
}

// gainEntry is one lazy-greedy priority-queue entry: the candidate's
// score as of round (placement size when it was last evaluated).
type gainEntry struct {
	score float64
	round int
	cand  int
}

// gainHeap is a max-heap on score, ties broken by candidate index
// ascending (candidates are ID-sorted, so index order is ID order and
// the selection is deterministic).
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].cand < h[j].cand
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// greedy adds one site at a time, keeping candidate scores in a
// lazy-evaluation priority queue (CELF): a popped entry scored at an
// earlier round is re-scored against the current partial placement and
// pushed back; a fresh top is selected without touching the rest.
// Because the configuration family changes shape with placement size,
// gains are not guaranteed submodular — the result is a deterministic
// heuristic, cross-checked against exact search in tests, not a
// provable (1-1/e) approximation.
func (s *kSearcher) greedy(ctx context.Context) ([]int, float64, error) {
	n := len(s.cands)
	// Round 0: score every singleton, in parallel.
	scores := make([]float64, n)
	tbl := s.byCount[1]
	err := engine.ForEach(s.req.Workers, n, func(j int) error {
		var c engine.Counts
		s.ck.CountsWith(j, tbl, &c)
		scores[j] = s.req.Weights.score(&c)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	s.addEvals(int64(n))
	h := make(gainHeap, n)
	for j, sc := range scores {
		h[j] = gainEntry{score: sc, round: 0, cand: j}
	}
	heap.Init(&h)

	chosen := make([]int, 0, s.req.K)
	var raw float64
	for len(chosen) < s.req.K {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("placement: search canceled: %w", err)
		}
		t := len(chosen)
		if h[0].round == t {
			e := heap.Pop(&h).(gainEntry)
			s.ck.Add(e.cand)
			chosen = append(chosen, e.cand)
			raw = e.score
			s.snapshot("greedy", chosen, raw)
			continue
		}
		// Stale entry: re-score against the current placement (and the
		// current size's outcome table) and restore heap order.
		var c engine.Counts
		s.ck.CountsWith(h[0].cand, s.byCount[t+1], &c)
		h[0].score, h[0].round = s.req.Weights.score(&c), t
		heap.Fix(&h, 0)
		s.addEvals(1)
	}
	return chosen, raw, nil
}

// branchAndBound enumerates k-subsets in lexicographic candidate-index
// order, pruning any partial placement whose optimistic bound cannot
// beat the incumbent. The bound relaxes per distinct pattern: with m
// sites left to pick from a suffix, pattern i's final flooded count
// lands in [c+aMin, c+aMax] (aMax floods among the suffix picks at
// most, aMin forced when non-flooding suffix candidates run out), and
// the pattern contributes its best-weighted state over that range —
// a range maximum, not the minimum count, because gray is not monotone
// in flood count (flooding every site can lift gray to red). Ties keep
// the lexicographically smallest set, matching brute-force
// enumeration's keep-first rule; pruning is strict (<), so tying
// subtrees are still explored and the tie-break stays exact.
func (s *kSearcher) branchAndBound(ctx context.Context) error {
	n, K, d := len(s.cands), s.req.K, s.cm.DistinctRows()
	tbl := s.byCount[K]
	// suff[j*d + i]: floods of pattern i among candidates j..n-1.
	suff := make([]uint16, (n+1)*d)
	for j := n - 1; j >= 0; j-- {
		row, prev := suff[j*d:(j+1)*d], suff[(j+1)*d:(j+2)*d]
		for i := 0; i < d; i++ {
			row[i] = prev[i] + s.ck.FloodBit(j, i)
		}
	}
	// bestIn[lo][hi]: the best-weighted state over final counts
	// lo..hi — the per-pattern range maximum of the bound.
	bestIn := make([][]opstate.State, K+1)
	for lo := 0; lo <= K; lo++ {
		bestIn[lo] = make([]opstate.State, K+1)
		best := tbl[lo]
		for hi := lo; hi <= K; hi++ {
			if s.req.Weights[tbl[hi]] > s.req.Weights[best] {
				best = tbl[hi]
			}
			bestIn[lo][hi] = best
		}
	}

	chosen := make([]int, 0, K)
	var nodes int64
	var dfs func(start int) error
	dfs = func(start int) error {
		if len(chosen) == K {
			var c engine.Counts
			s.ck.Counts(tbl, &c)
			sc := s.req.Weights.score(&c)
			s.addEvals(1)
			if sc > s.bestRaw || (sc == s.bestRaw && lexLess(chosen, s.bestSet)) {
				s.bestRaw = sc
				s.bestSet = append(s.bestSet[:0], chosen...)
				s.snapshot("exact", s.bestSet, sc)
			}
			return nil
		}
		m := K - len(chosen)
		for j := start; j <= n-m; j++ {
			if nodes++; nodes&255 == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("placement: search canceled: %w", err)
				}
				s.heartbeat("exact")
			}
			s.ck.Add(j)
			if s.bound(suff, j+1, m-1, bestIn) < s.bestRaw {
				s.pruned++
				s.prunedC.Inc()
				s.ck.Remove(j)
				continue
			}
			chosen = append(chosen, j)
			err := dfs(j + 1)
			chosen = chosen[:len(chosen)-1]
			s.ck.Remove(j)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return dfs(0)
}

// bound returns the optimistic raw score of completing the current
// placement with m picks from candidates from..n-1.
func (s *kSearcher) bound(suff []uint16, from, m int, bestIn [][]opstate.State) float64 {
	d := s.cm.DistinctRows()
	avail := len(s.cands) - from
	row := suff[from*d : (from+1)*d]
	var bc engine.Counts
	for i, c := range s.ck.FloodedCounts() {
		fr := int(row[i])
		aMin := m - (avail - fr)
		if aMin < 0 {
			aMin = 0
		}
		aMax := fr
		if m < aMax {
			aMax = m
		}
		bc[bestIn[int(c)+aMin][int(c)+aMax]] += s.cm.Weight(i)
	}
	return s.req.Weights.score(&bc)
}

// lexLess compares candidate-index sets lexicographically.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// rank scores the chosen set and assembles the result.
func (s *kSearcher) rank() *KResult {
	s.ck.Clear()
	for _, j := range s.bestSet {
		s.ck.Add(j)
	}
	sites := make([]string, len(s.bestSet))
	for i, j := range s.bestSet {
		sites[i] = s.cands[j]
	}
	var counts engine.Counts
	s.ck.Counts(s.byCount[s.req.K], &counts)
	cfg := s.req.Build(sites)
	outcome := analysis.Outcome{Config: cfg, Scenario: s.req.Scenario, Profile: counts.Profile()}
	return &KResult{
		Sites:            sites,
		Score:            s.normalize(s.req.Weights.score(&counts)),
		Outcome:          outcome,
		Evaluated:        s.evals,
		Pruned:           s.pruned,
		Exact:            s.exact,
		Candidates:       len(s.cands),
		DistinctPatterns: s.cm.DistinctRows(),
	}
}

func (s *kSearcher) normalize(raw float64) float64 {
	if s.cm.Rows() == 0 {
		return 0
	}
	return raw / float64(s.cm.Rows())
}

func (s *kSearcher) addEvals(n int64) {
	s.evals += n
	s.gainEvals.Add(n)
}

// snapshot reports a new best placement to the Progress callback.
func (s *kSearcher) snapshot(phase string, set []int, raw float64) {
	if s.req.Progress == nil {
		return
	}
	sites := make([]string, len(set))
	for i, j := range set {
		sites[i] = s.cands[j]
	}
	sort.Strings(sites)
	s.req.Progress(KProgress{
		Phase:     phase,
		Evaluated: s.evals,
		Pruned:    s.pruned,
		BestScore: s.normalize(raw),
		BestSites: sites,
	})
}

// heartbeat reports throttled liveness during long scans.
func (s *kSearcher) heartbeat(phase string) {
	if s.req.Progress == nil {
		return
	}
	if s.evals+s.pruned-s.lastBeat < 4096 {
		return
	}
	s.lastBeat = s.evals + s.pruned
	s.snapshot(phase, s.bestSet, s.bestRaw)
}
