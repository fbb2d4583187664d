// Package hazard generates hurricane realization ensembles: the
// natural-disaster input of the paper's analysis framework. Each
// realization perturbs a base storm (track offset, heading, intensity,
// size, forward speed), runs the surge solver against the asset
// inventory, and records the peak inundation depth at every asset. An
// asset fails in a realization when its peak inundation exceeds the
// flood threshold (0.5 m in the paper — the typical switch height in
// plants and substations).
//
// Generation is deterministic: realization i derives its RNG stream
// from (Seed, i) alone, so results are identical regardless of worker
// parallelism.
package hazard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compoundthreat/internal/assets"
	"compoundthreat/internal/geo"
	"compoundthreat/internal/obs"
	"compoundthreat/internal/surge"
	"compoundthreat/internal/terrain"
	"compoundthreat/internal/wind"
)

// DefaultFloodThresholdMeters is the paper's asset failure threshold:
// inundation above the typical switch height of 0.5 m (2 ft).
const DefaultFloodThresholdMeters = 0.5

// BaseStorm describes the unperturbed scenario storm as a straight
// track through a reference point.
type BaseStorm struct {
	// ReferencePoint is the track's position at mid-duration.
	ReferencePoint geo.Point
	// HeadingDeg is the storm motion direction (degrees clockwise from
	// north).
	HeadingDeg float64
	// ForwardSpeedMS is the translation speed.
	ForwardSpeedMS float64
	// Duration is the simulated window (the track spans Duration
	// centered on the reference point).
	Duration time.Duration
	// CentralPressureHPa, RMaxMeters, HollandB parameterize intensity.
	CentralPressureHPa float64
	RMaxMeters         float64
	HollandB           float64
}

// Validate reports the first problem with the base storm.
func (b BaseStorm) Validate() error {
	switch {
	case !b.ReferencePoint.Valid():
		return fmt.Errorf("hazard: invalid reference point %v", b.ReferencePoint)
	case b.ForwardSpeedMS <= 0:
		return errors.New("hazard: forward speed must be positive")
	case b.Duration <= 0:
		return errors.New("hazard: duration must be positive")
	case b.CentralPressureHPa <= 800 || b.CentralPressureHPa >= wind.AmbientPressureHPa:
		return fmt.Errorf("hazard: central pressure %v out of range", b.CentralPressureHPa)
	case b.RMaxMeters <= 0:
		return errors.New("hazard: RMax must be positive")
	case b.HollandB < 0.5 || b.HollandB > 3.5:
		return fmt.Errorf("hazard: Holland B %v out of range", b.HollandB)
	}
	return nil
}

// Perturbation is the stochastic spread applied per realization.
type Perturbation struct {
	// TrackOffsetSigmaMeters displaces the track laterally
	// (perpendicular to the heading).
	TrackOffsetSigmaMeters float64
	// AlongTrackSigmaMeters displaces the reference point along the
	// heading (timing uncertainty).
	AlongTrackSigmaMeters float64
	// HeadingSigmaDeg jitters the heading.
	HeadingSigmaDeg float64
	// PressureSigmaHPa jitters central pressure (intensity).
	PressureSigmaHPa float64
	// RMaxSigmaFraction jitters the radius of maximum winds
	// multiplicatively.
	RMaxSigmaFraction float64
	// SpeedSigmaFraction jitters forward speed multiplicatively.
	SpeedSigmaFraction float64
}

// Validate reports the first problem with the perturbation.
func (p Perturbation) Validate() error {
	for _, v := range []float64{
		p.TrackOffsetSigmaMeters, p.AlongTrackSigmaMeters, p.HeadingSigmaDeg,
		p.PressureSigmaHPa, p.RMaxSigmaFraction, p.SpeedSigmaFraction,
	} {
		if v < 0 || math.IsNaN(v) {
			return errors.New("hazard: perturbation sigmas must be non-negative")
		}
	}
	return nil
}

// EnsembleConfig parameterizes ensemble generation.
type EnsembleConfig struct {
	// Realizations is the ensemble size (the paper uses 1000).
	Realizations int
	// Seed drives all randomness.
	Seed int64
	// Base is the scenario storm.
	Base BaseStorm
	// Spread is the per-realization perturbation.
	Spread Perturbation
	// FloodThresholdMeters is the asset failure threshold.
	FloodThresholdMeters float64
	// Workers bounds generation parallelism (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each completed
	// realization with the number done so far and the total. It may be
	// called concurrently from generation workers and must be cheap; it
	// is excluded from the wire form of the config.
	Progress func(done, total int) `json:"-"`
}

// Validate reports the first configuration problem found.
func (c EnsembleConfig) Validate() error {
	if c.Realizations <= 0 {
		return errors.New("hazard: Realizations must be positive")
	}
	if c.FloodThresholdMeters <= 0 {
		return errors.New("hazard: FloodThresholdMeters must be positive")
	}
	if c.Workers < 0 {
		return errors.New("hazard: Workers must be non-negative")
	}
	if err := c.Base.Validate(); err != nil {
		return err
	}
	return c.Spread.Validate()
}

// Ensemble holds per-asset peak inundation depths for every
// realization.
type Ensemble struct {
	cfg      EnsembleConfig
	assetIDs []string
	assetIdx map[string]int
	// depths[r][a] is the peak inundation at asset a in realization r.
	depths [][]float64
	// failedBits is the asset-major, bit-packed failure plane
	// precomputed at construction: bit r%64 of
	// failedBits[a*words + r/64] (words = ceil(realizations/64))
	// reports whether asset a floods in realization r. It makes the
	// column-major accessor the engine compiles matrices through a
	// contiguous copy per asset.
	failedBits []uint64
}

// buildFailureColumns precomputes the asset-major failure bitsets
// served by AppendFailureBits. Both constructors call it once, after
// depths are final.
func (e *Ensemble) buildFailureColumns() {
	words := (len(e.depths) + 63) / 64
	e.failedBits = make([]uint64, len(e.assetIDs)*words)
	th := e.cfg.FloodThresholdMeters
	for r, row := range e.depths {
		w, bit := r>>6, uint64(1)<<uint(r&63)
		for a, d := range row {
			if d > th {
				e.failedBits[a*words+w] |= bit
			}
		}
	}
}

// Generator produces ensembles for one region.
type Generator struct {
	tm     *terrain.Model
	solver *surge.Solver
	inv    *assets.Inventory
}

// NewGenerator builds a generator from a terrain model, surge solver
// parameters, and an asset inventory.
func NewGenerator(tm *terrain.Model, params surge.Params, inv *assets.Inventory) (*Generator, error) {
	solver, err := surge.NewSolver(tm, params)
	if err != nil {
		return nil, err
	}
	if inv == nil || inv.Len() == 0 {
		return nil, errors.New("hazard: empty asset inventory")
	}
	return &Generator{tm: tm, solver: solver, inv: inv}, nil
}

// Track materializes the storm track of realization i. Exposed so that
// tools can inspect or visualize individual realizations.
func (g *Generator) Track(cfg EnsembleConfig, i int) (*wind.Track, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return realizationTrack(cfg, i)
}

func realizationTrack(cfg EnsembleConfig, i int) (*wind.Track, error) {
	rng := rand.New(rand.NewSource(splitmix(cfg.Seed, int64(i))))
	var tp [2]wind.TrackPoint
	realizationPoints(cfg, rng, &tp)
	return wind.NewTrack(tp[:])
}

// realizationPoints fills out with the two track points of one
// realization drawn from rng, which must be freshly seeded with
// splitmix(cfg.Seed, i). It performs no validation (and no
// allocation); building a Track from the points validates them.
func realizationPoints(cfg EnsembleConfig, rng *rand.Rand, out *[2]wind.TrackPoint) {
	b := cfg.Base
	sp := cfg.Spread

	heading := b.HeadingDeg + rng.NormFloat64()*sp.HeadingSigmaDeg
	offset := rng.NormFloat64() * sp.TrackOffsetSigmaMeters
	along := rng.NormFloat64() * sp.AlongTrackSigmaMeters
	pressure := clamp(b.CentralPressureHPa+rng.NormFloat64()*sp.PressureSigmaHPa, 880, 1005)
	rmax := b.RMaxMeters * math.Exp(rng.NormFloat64()*sp.RMaxSigmaFraction)
	speed := b.ForwardSpeedMS * math.Exp(rng.NormFloat64()*sp.SpeedSigmaFraction)

	// Displace the reference point: lateral offset perpendicular to the
	// heading (to the right for positive offsets), plus along-track.
	ref := geo.Destination(b.ReferencePoint, heading+90, offset)
	ref = geo.Destination(ref, heading, along)

	half := b.Duration / 2
	halfDist := speed * half.Seconds()
	start := geo.Destination(ref, heading+180, halfDist)
	end := geo.Destination(ref, heading, halfDist)

	out[0] = wind.TrackPoint{
		Offset: 0, Center: start,
		CentralPressureHPa: pressure, RMaxMeters: rmax, HollandB: b.HollandB,
	}
	out[1] = wind.TrackPoint{
		Offset: b.Duration, Center: end,
		CentralPressureHPa: pressure, RMaxMeters: rmax, HollandB: b.HollandB,
	}
}

// genPlan is the per-Generate compilation of the asset inventory: the
// site list, zone membership, inland attenuation factors, and — for
// the batch path — the single-scan surge evaluator with one consumer
// region per zone in use plus one per out-of-zone asset, and the
// per-asset (consumer, factor, elevation) triple that turns the
// evaluator's peak averages into inundation depths.
type genPlan struct {
	ids    []string
	sites  []surge.Site
	zoneOf []int
	decay  []float64

	be     *surge.BatchEvaluator
	cons   []int32   // per asset: region index in the batch evaluator
	factor []float64 // per asset: inland attenuation multiplier
	elev   []float64 // per asset: ground elevation (meters MSL)
}

// compilePlan resolves the inventory against the terrain and compiles
// the batch evaluator.
func (g *Generator) compilePlan() (*genPlan, error) {
	list := g.inv.All()
	p := &genPlan{
		ids:    make([]string, len(list)),
		sites:  make([]surge.Site, len(list)),
		zoneOf: make([]int, len(list)),
		decay:  make([]float64, len(list)),
		cons:   make([]int32, len(list)),
		factor: make([]float64, len(list)),
		elev:   make([]float64, len(list)),
	}
	proj := g.tm.Projection()
	lambda := g.solver.Params().InlandDecayMeters
	for i, a := range list {
		p.ids[i] = a.ID
		pos := proj.ToXY(a.Location)
		p.sites[i] = surge.Site{
			Pos:                   pos,
			GroundElevationMeters: a.GroundElevationMeters,
		}
		p.elev[i] = a.GroundElevationMeters
		p.zoneOf[i] = -1
		if z, ok := g.tm.ZoneIndexAt(pos); ok {
			p.zoneOf[i] = z
			d := g.tm.DistanceToCoast(pos)
			if !g.tm.IsLand(pos) {
				d = 0
			}
			p.decay[i] = math.Exp(-d / lambda)
		}
	}

	// Batch regions: one per zone actually containing an asset, then one
	// per out-of-zone asset (its averaging disk). The union of all of
	// them is what the evaluator scans per time step.
	zones := g.tm.ZoneGeometries()
	zoneCons := make([]int, len(zones))
	for z := range zoneCons {
		zoneCons[z] = -1
	}
	regions := make([]surge.Region, 0, len(zones)+len(list))
	for _, z := range p.zoneOf {
		if z >= 0 && zoneCons[z] < 0 {
			zoneCons[z] = len(regions)
			regions = append(regions, surge.Region{Center: zones[z].Center, Radius: zones[z].Radius})
		}
	}
	avgRadius := g.solver.Params().AveragingRadiusMeters
	for i := range list {
		if z := p.zoneOf[i]; z >= 0 {
			p.cons[i] = int32(zoneCons[z])
			p.factor[i] = p.decay[i]
			continue
		}
		p.cons[i] = int32(len(regions))
		regions = append(regions, surge.Region{Center: p.sites[i].Pos, Radius: avgRadius})
		d := g.tm.DistanceToCoast(p.sites[i].Pos)
		if !g.tm.IsLand(p.sites[i].Pos) {
			d = 0
		}
		p.factor[i] = math.Exp(-d / lambda)
	}
	be, err := g.solver.NewBatchEvaluator(regions)
	if err != nil {
		return nil, err
	}
	p.be = be
	return p, nil
}

// newEnsembleShell builds an Ensemble with its depth rows backed by
// one flat allocation, ready for workers to fill in place.
func newEnsembleShell(cfg EnsembleConfig, ids []string) *Ensemble {
	e := &Ensemble{
		cfg:      cfg,
		assetIDs: ids,
		assetIdx: make(map[string]int, len(ids)),
		depths:   make([][]float64, cfg.Realizations),
	}
	for i, id := range ids {
		e.assetIdx[id] = i
	}
	flat := make([]float64, cfg.Realizations*len(ids))
	for r := range e.depths {
		e.depths[r] = flat[r*len(ids) : (r+1)*len(ids) : (r+1)*len(ids)]
	}
	return e
}

// runRealizations fans realization indices [0, n) out to workers. Each
// worker gets its own job function from newWorker (so per-worker
// scratch lives in the closure). The first error — or ctx cancellation,
// observed at realization granularity — cancels the feed; the producer
// selects on a done channel rather than blocking forever on the
// unbuffered jobs channel after its workers have exited. The first
// error is returned after all workers drain.
func runRealizations(ctx context.Context, workers, n int, newWorker func() func(r int) error) error {
	jobs := make(chan int)
	done := make(chan struct{})
	var once sync.Once
	var genErr error
	fail := func(err error) {
		once.Do(func() {
			genErr = err
			close(done)
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for r := range jobs {
				if err := work(r); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for r := 0; r < n; r++ {
		select {
		case jobs <- r:
		case <-done:
			break feed
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return genErr
}

// Generate runs the full ensemble through the single-scan batch
// pipeline: per realization the storm track is scanned exactly once,
// every needed shoreline segment's setup is evaluated once per time
// step into a shared vector, and all zone and site averages are
// accumulated from it. Results are bit-identical for every worker count
// to the per-consumer reference (surge.Solver.Inundation per site list
// plus a RegionPeak re-scan per zone) that the package tests keep;
// steady-state workers allocate nothing per realization.
//
// Assets inside a terrain inundation zone are evaluated against the
// zone's common water surface (the paper's averaged-and-extended water
// surface): depth = zoneEta * exp(-d/lambda) - elevation, where d is
// the asset's distance to the coast. Assets outside every zone get the
// per-site evaluation of surge.Solver.Inundation.
func (g *Generator) Generate(cfg EnsembleConfig) (*Ensemble, error) {
	return g.GenerateCtx(context.Background(), cfg)
}

// GenerateCtx is Generate with cancellation: when ctx is canceled the
// realization feed stops (observed between realizations, so
// cancellation latency is one realization per worker) and the ctx
// error is returned. Used by the serving tier's async generation jobs
// for timeouts and drain-aware cancel.
func (g *Generator) GenerateCtx(ctx context.Context, cfg EnsembleConfig) (*Ensemble, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := g.compilePlan()
	if err != nil {
		return nil, err
	}
	e := newEnsembleShell(cfg, p.ids)

	rec := obs.Default()
	realCtr := rec.Counter("hazard.realizations")
	trackH := rec.Histogram("hazard.generate.track_ns")
	setupH := rec.Histogram("hazard.generate.setup_ns")
	zonesH := rec.Histogram("hazard.generate.zones_ns")
	timed := rec != nil
	var prog atomic.Int64

	err = runRealizations(ctx, generateWorkers(cfg), cfg.Realizations, func() func(int) error {
		rng := rand.New(rand.NewSource(0))
		var tp [2]wind.TrackPoint
		var tr wind.Track
		var sc surge.Scratch
		peaks := make([]float64, p.be.NumRegions())
		return func(r int) error {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			rng.Seed(splitmix(cfg.Seed, int64(r)))
			realizationPoints(cfg, rng, &tp)
			if err := tr.Reset(tp[:]); err != nil {
				return fmt.Errorf("realization %d: %w", r, err)
			}
			if timed {
				t1 := time.Now()
				trackH.Observe(t1.Sub(t0).Nanoseconds())
				t0 = t1
			}
			if err := p.be.PeakAverages(&tr, &sc, peaks); err != nil {
				return fmt.Errorf("realization %d: %w", r, err)
			}
			if timed {
				t1 := time.Now()
				setupH.Observe(t1.Sub(t0).Nanoseconds())
				t0 = t1
			}
			row := e.depths[r]
			for i := range row {
				depth := peaks[p.cons[i]]*p.factor[i] - p.elev[i]
				if depth < 0 {
					depth = 0
				}
				row[i] = depth
			}
			if timed {
				zonesH.Observe(time.Since(t0).Nanoseconds())
			}
			realCtr.Inc()
			if cfg.Progress != nil {
				cfg.Progress(int(prog.Add(1)), cfg.Realizations)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	sp := rec.StartSpan("hazard.generate.bitplane_ns")
	e.buildFailureColumns()
	sp.End()
	return e, nil
}

// generateWorkers resolves the configured worker count.
func generateWorkers(cfg EnsembleConfig) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Config returns the generation configuration.
func (e *Ensemble) Config() EnsembleConfig { return e.cfg }

// Size returns the number of realizations.
func (e *Ensemble) Size() int { return len(e.depths) }

// AssetIDs returns the asset IDs in column order.
func (e *Ensemble) AssetIDs() []string {
	out := make([]string, len(e.assetIDs))
	copy(out, e.assetIDs)
	return out
}

// Depth returns the peak inundation depth at an asset in realization r.
func (e *Ensemble) Depth(r int, assetID string) (float64, error) {
	if r < 0 || r >= len(e.depths) {
		return 0, fmt.Errorf("hazard: realization %d out of range [0, %d)", r, len(e.depths))
	}
	i, ok := e.assetIdx[assetID]
	if !ok {
		return 0, fmt.Errorf("hazard: unknown asset %q", assetID)
	}
	return e.depths[r][i], nil
}

// Failed reports whether the asset floods (depth above threshold) in
// realization r.
func (e *Ensemble) Failed(r int, assetID string) (bool, error) {
	d, err := e.Depth(r, assetID)
	if err != nil {
		return false, err
	}
	return d > e.cfg.FloodThresholdMeters, nil
}

// FailureRate returns the fraction of realizations in which the asset
// floods.
func (e *Ensemble) FailureRate(assetID string) (float64, error) {
	i, ok := e.assetIdx[assetID]
	if !ok {
		return 0, fmt.Errorf("hazard: unknown asset %q", assetID)
	}
	var n int
	for _, row := range e.depths {
		if row[i] > e.cfg.FloodThresholdMeters {
			n++
		}
	}
	return float64(n) / float64(len(e.depths)), nil
}

// JointFailures returns how many realizations flood asset a, asset b,
// and both.
func (e *Ensemble) JointFailures(a, b string) (onlyA, onlyB, both int, err error) {
	ia, ok := e.assetIdx[a]
	if !ok {
		return 0, 0, 0, fmt.Errorf("hazard: unknown asset %q", a)
	}
	ib, ok := e.assetIdx[b]
	if !ok {
		return 0, 0, 0, fmt.Errorf("hazard: unknown asset %q", b)
	}
	th := e.cfg.FloodThresholdMeters
	for _, row := range e.depths {
		fa, fb := row[ia] > th, row[ib] > th
		switch {
		case fa && fb:
			both++
		case fa:
			onlyA++
		case fb:
			onlyB++
		}
	}
	return onlyA, onlyB, both, nil
}

// FailureVector returns, for realization r, the failed flags for the
// given asset IDs in order. It is the disaster-agnostic accessor used
// by the analysis pipeline (for hurricanes, failure means flooding).
func (e *Ensemble) FailureVector(r int, assetIDs []string) ([]bool, error) {
	return e.FloodVector(r, assetIDs)
}

// AppendFailureVector appends the failed flags of the given assets in
// realization r to dst and returns the extended slice. It is the
// allocation-free variant of FailureVector used by the analysis
// engine: with a pre-sized dst, the call performs no allocations.
func (e *Ensemble) AppendFailureVector(dst []bool, r int, assetIDs []string) ([]bool, error) {
	if r < 0 || r >= len(e.depths) {
		return nil, fmt.Errorf("hazard: realization %d out of range [0, %d)", r, len(e.depths))
	}
	row, th := e.depths[r], e.cfg.FloodThresholdMeters
	for _, id := range assetIDs {
		i, ok := e.assetIdx[id]
		if !ok {
			return nil, fmt.Errorf("hazard: unknown asset %q", id)
		}
		dst = append(dst, row[i] > th)
	}
	return dst, nil
}

// FloodVector returns, for realization r, the flooded flags for the
// given asset IDs in order.
func (e *Ensemble) FloodVector(r int, assetIDs []string) ([]bool, error) {
	return e.AppendFailureVector(make([]bool, 0, len(assetIDs)), r, assetIDs)
}

// AppendFailureBits appends the asset's failure flags for every
// realization as a little-endian bitset (bit r%64 of word r/64 is
// realization r) — the column-major accessor the analysis engine
// prefers for matrix compilation: the asset ID resolves once per
// column and the precomputed bitset is a contiguous copy.
func (e *Ensemble) AppendFailureBits(dst []uint64, assetID string) ([]uint64, error) {
	i, ok := e.assetIdx[assetID]
	if !ok {
		return nil, fmt.Errorf("hazard: unknown asset %q", assetID)
	}
	words := (len(e.depths) + 63) / 64
	return append(dst, e.failedBits[i*words:(i+1)*words]...), nil
}

func splitmix(seed, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
