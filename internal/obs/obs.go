// Package obs is the zero-dependency observability layer of the
// analysis pipeline. It has three instrument kinds — atomic counters,
// gauges, and power-of-two histograms — aggregated by a Recorder that
// renders one machine-readable JSON run report. Durations are
// histograms of nanoseconds, and their names end in "_ns"; a span API
// times phases into them. On top of the aggregates it offers
// request-scoped tracing (trace.go), Prometheus text exposition of
// every instrument (prom.go), and a background runtime sampler
// feeding gauges (runtime.go).
//
// Instrumentation is opt-in and allocation-free when disabled. The
// package-level Default recorder is nil until a CLI (or test) calls
// Enable; every method on a nil *Recorder, *Counter, *Gauge,
// *Histogram, or zero Span is a safe no-op, so instrumented code pays
// a single nil-check branch per event when observability is off. When
// it is on, a resolved instrument records with atomics and no locks;
// StartSpan resolves its histogram by name (one locked map lookup) and
// reads the monotonic clock twice. No recording path allocates.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// defaultRecorder is the process-wide recorder used by instrumented
// code. It is nil (all instrumentation disabled) until Enable is
// called.
var defaultRecorder atomic.Pointer[Recorder]

// Enable installs r as the process-wide default recorder; Enable(nil)
// disables instrumentation again. Instruments already resolved from a
// previous recorder keep recording into it, so callers should enable
// observability before constructing the objects they want observed.
func Enable(r *Recorder) {
	defaultRecorder.Store(r)
}

// Default returns the process-wide recorder, or nil when
// instrumentation is disabled. All Recorder methods are nil-safe, so
// callers may use the result unconditionally.
func Default() *Recorder {
	return defaultRecorder.Load()
}

// Recorder aggregates named instruments and renders them as a run
// report. Instrument resolution (Counter, Gauge, Histogram) takes a
// lock and is meant for construction-time code; the returned
// instruments record lock-free. A nil *Recorder resolves nil
// instruments, whose methods all no-op.
type Recorder struct {
	start time.Time
	now   func() time.Time // injectable clock for deterministic tests

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	results  map[string]any
}

// New returns an empty recorder using the real monotonic clock.
func New() *Recorder {
	return newRecorder(time.Now)
}

func newRecorder(now func() time.Time) *Recorder {
	return &Recorder{
		start:    now(),
		now:      now,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
		results:  make(map[string]any),
	}
}

// Counter resolves (creating on first use) the named counter. Returns
// nil — a valid no-op counter — on a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram resolves (creating on first use) the named histogram.
// Returns nil on a nil recorder.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Gauge resolves (creating on first use) the named gauge. Returns nil
// — a valid no-op gauge — on a nil recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Put attaches an arbitrary JSON-renderable value to the run report's
// results section (e.g. per-figure state tallies). No-op on a nil
// recorder.
func (r *Recorder) Put(key string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[key] = v
}

// StartSpan starts timing one occurrence of the named phase into the
// histogram of that name (which, like every duration, ends in "_ns");
// call End on the returned span to record it. On a nil recorder it
// returns a zero Span whose End is a no-op and performs no clock read.
func (r *Recorder) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, h: r.Histogram(name), start: r.now()}
}

// Span is one in-flight phase timing. The zero Span is valid and
// records nothing.
type Span struct {
	r     *Recorder
	h     *Histogram
	start time.Time
}

// End observes the span's duration in nanoseconds. Safe to call on a
// zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(s.r.now().Sub(s.start).Nanoseconds())
}

// Counter is a monotonically increasing atomic counter. A nil *Counter
// ignores all updates.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous level — in-flight requests, queue depth,
// open connections — that moves both ways, unlike the monotonic
// Counter. Alongside the level it tracks the high-water mark, so a run
// report shows peak concurrency, not just whatever the level happened
// to be at snapshot time. A nil *Gauge ignores all updates.
type Gauge struct {
	n    atomic.Int64
	high atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.n.Add(delta)
	atomicMax(&g.high, v)
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set forces the gauge to v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.n.Store(v)
	atomicMax(&g.high, v)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

// High returns the high-water mark (0 for a nil gauge).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.high.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i), which spans 1 ns to ~9.2 s when observing
// nanoseconds. Bucket 0 counts non-positive observations; the last
// bucket absorbs everything larger.
const histBuckets = 34

// Histogram is a fixed-size power-of-two histogram with atomic
// buckets, plus count/sum/min/max. A nil *Histogram ignores all
// updates.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until first observation
	max     atomic.Int64 // MinInt64 until first observation
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1<<63 - 1))
	h.max.Store(-int64(1<<63-1) - 1)
	return h
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	atomicMin(&h.min, v)
	atomicMax(&h.max, v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation, or 0 before the first one (and
// on a nil histogram).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation, or 0 before the first one (and
// on a nil histogram).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observations
// from the power-of-two buckets: it finds the bucket holding the
// target rank, interpolates linearly inside the bucket's [2^(i-1),
// 2^i) bounds, and clamps the estimate to the exact observed min and
// max — so Quantile(0) is exactly Min, Quantile(1) is exactly Max, and
// everything between is accurate to within one power-of-two bucket.
// Returns 0 on an empty (or nil) histogram; q outside [0, 1] is
// clamped. The estimate is approximate while concurrent observations
// race the read, like every other snapshot in this package.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	min, max := float64(h.min.Load()), float64(h.max.Load())
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(n)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := bucketBounds(i)
			v := lo + (hi-lo)*(rank-float64(cum))/float64(c)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		cum += c
	}
	return max
}

// bucketBounds returns bucket i's [lo, hi) value range. Bucket 0
// holds non-positive observations; the last bucket has no upper bound
// and reports its lower power of two twice (Quantile clamps to the
// observed max anyway).
func bucketBounds(i int) (float64, float64) {
	if i <= 0 {
		return 0, 0
	}
	lo := float64(int64(1) << uint(i-1))
	if i >= histBuckets-1 {
		return lo, lo
	}
	return lo, float64(int64(1) << uint(i))
}

// atomicMin lowers p to v if v is smaller.
func atomicMin(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v >= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMax raises p to v if v is larger.
func atomicMax(p *atomic.Int64, v int64) {
	for {
		cur := p.Load()
		if v <= cur || p.CompareAndSwap(cur, v) {
			return
		}
	}
}
