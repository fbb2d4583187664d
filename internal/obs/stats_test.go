package obs

import (
	"sync"
	"testing"
)

// TestHistogramMinMax covers the accessor edge cases: an empty
// histogram reads zero (neither internal sentinel may leak, including
// on negative observations), then tracks real extremes.
func TestHistogramMinMax(t *testing.T) {
	h := New().Histogram("h")
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram min/max = %d/%d, want 0/0", h.Min(), h.Max())
	}
	h.Observe(-3)
	if h.Min() != -3 || h.Max() != -3 {
		t.Fatalf("single negative observation min/max = %d/%d, want -3/-3", h.Min(), h.Max())
	}
	h.Observe(100)
	if h.Min() != -3 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want -3/100", h.Min(), h.Max())
	}
	var nilH *Histogram
	if nilH.Min() != 0 || nilH.Max() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram accessors must be 0")
	}
}

// TestHistogramQuantile checks the estimator against known
// distributions: exact at the extremes (clamped to observed min/max),
// within one power-of-two bucket in between, and well-defined on the
// edge cases (empty, single value, out-of-range q, bucket boundary).
func TestHistogramQuantile(t *testing.T) {
	empty := New().Histogram("e")
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}

	single := New().Histogram("s")
	single.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := single.Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%v) = %v, want 42", q, got)
		}
	}

	// Uniform 1..1000: every quantile estimate must land within the
	// power-of-two bucket that truly contains the rank.
	u := New().Histogram("u")
	for v := int64(1); v <= 1000; v++ {
		u.Observe(v)
	}
	if got := u.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want exact min 1", got)
	}
	if got := u.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %v, want exact max 1000", got)
	}
	for _, tc := range []struct{ q, lo, hi float64 }{
		{0.5, 256, 512},  // true p50 = 500, bucket [256,512)
		{0.9, 512, 1000}, // true p90 = 900, bucket [512,1024) clamped to max
		{0.05, 32, 64},   // true p5 = 50
	} {
		got := u.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Fatalf("Quantile(%v) = %v, want within [%v, %v]", tc.q, got, tc.lo, tc.hi)
		}
	}
	// Monotone in q.
	prev := -1.0
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := u.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v) = %v < %v", q, got, prev)
		}
		prev = got
	}

	// Bucket boundary: all mass exactly on a power of two.
	b := New().Histogram("b")
	for i := 0; i < 10; i++ {
		b.Observe(1024)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := b.Quantile(q); got != 1024 {
			t.Fatalf("boundary Quantile(%v) = %v, want 1024", q, got)
		}
	}
}

// TestRecorderConcurrentResolution resolves the same instrument names
// from many goroutines; every goroutine must get the identical
// instrument (run with -race to also prove resolution is race-free).
func TestRecorderConcurrentResolution(t *testing.T) {
	r := New()
	const workers = 8
	var wg sync.WaitGroup
	counters := make([]*Counter, workers)
	hists := make([]*Histogram, workers)
	gauges := make([]*Gauge, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				counters[w] = r.Counter("shared.counter")
				hists[w] = r.Histogram("shared.hist")
				gauges[w] = r.Gauge("shared.gauge")
				counters[w].Inc()
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if counters[w] != counters[0] ||
			hists[w] != hists[0] || gauges[w] != gauges[0] {
			t.Fatalf("goroutine %d resolved different instruments for the same names", w)
		}
	}
	if got := counters[0].Value(); got != workers*100 {
		t.Fatalf("shared counter = %d, want %d", got, workers*100)
	}
}
