package obs

import (
	"sync"
	"testing"

	"compoundthreat/internal/racetest"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// with -race to verify the implementation is data-race free.
func TestCounterConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("c")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent checks count/sum/min/max and bucket totals
// under concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}()
	}
	wg.Wait()
	n := int64(workers * perWorker)
	if got := h.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if want := n * (n - 1) / 2; h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	if h.min.Load() != 0 || h.max.Load() != n-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", h.min.Load(), h.max.Load(), n-1)
	}
	var bucketTotal int64
	for i := range h.buckets {
		bucketTotal += h.buckets[i].Load()
	}
	if bucketTotal != n {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, n)
	}
}

// TestNilSafety exercises every instrument method on nil receivers and
// the zero Span; none may panic, and reads return zeros.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Histogram("h").Observe(42)
	r.Put("k", "v")
	r.StartSpan("s").End()
	Span{}.End()
	if r.Counter("c").Value() != 0 || r.Histogram("h").Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	rep := r.Report("cmd", nil)
	if rep.Schema != ReportSchema {
		t.Fatalf("nil recorder report schema = %q", rep.Schema)
	}
}

// TestDefaultEnableDisable checks the process-wide recorder switch.
func TestDefaultEnableDisable(t *testing.T) {
	if Default() != nil {
		t.Fatal("default recorder must start disabled")
	}
	r := New()
	Enable(r)
	defer Enable(nil)
	if Default() != r {
		t.Fatal("Enable did not install the recorder")
	}
	Default().Counter("x").Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("default recorder did not record")
	}
}

// TestBucketIndex pins the histogram bucket layout.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 40, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestNoopZeroAlloc proves the disabled instrumentation path performs
// no allocations: the whole point of the nil-recorder design.
func TestNoopZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	var r *Recorder
	c := r.Counter("c")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(7)
		r.StartSpan("phase_ns").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %v times per run", allocs)
	}
}

// TestEnabledRecordingZeroAlloc proves the recording paths stay
// allocation-free when observability is on, once instruments are
// resolved — spans included, whose histogram already exists after
// the first End.
func TestEnabledRecordingZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h")
	r.StartSpan("phase_ns").End()
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(7)
		r.StartSpan("phase_ns").End()
	})
	if allocs != 0 {
		t.Fatalf("enabled recording allocated %v times per run", allocs)
	}
}
