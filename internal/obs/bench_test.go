package obs

// Allocation benchmarks for the two instrumentation modes. The
// disabled (nil recorder) path is what every hot loop in the engine
// pays when observability is off: it must report 0 allocs/op and a
// few tenths of a nanosecond. The enabled path must also be
// allocation-free once instruments are resolved — the run report is
// built from atomics, never from per-event allocations.

import "testing"

// BenchmarkNoopCounter measures Counter.Add on a nil counter.
func BenchmarkNoopCounter(b *testing.B) {
	var r *Recorder
	c := r.Counter("c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNoopSpan measures StartSpan/End on a nil recorder: no
// clock reads, no allocations.
func BenchmarkNoopSpan(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StartSpan("phase_ns").End()
	}
}

// BenchmarkNoopHistogram measures Observe on a nil histogram.
func BenchmarkNoopHistogram(b *testing.B) {
	var r *Recorder
	h := r.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkEnabledCounter measures the live atomic-add path.
func BenchmarkEnabledCounter(b *testing.B) {
	r := New()
	c := r.Counter("c")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkEnabledHistogram measures the live observe path (atomic
// count/sum/min/max plus one bucket add).
func BenchmarkEnabledHistogram(b *testing.B) {
	r := New()
	h := r.Histogram("h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// BenchmarkEnabledSpan measures a full live span: one locked histogram
// lookup, two monotonic clock reads, one observation.
func BenchmarkEnabledSpan(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StartSpan("phase_ns").End()
	}
}
