package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"compoundthreat/internal/opstate"
)

func TestProfileBasics(t *testing.T) {
	p := NewProfile()
	if p.Total() != 0 {
		t.Error("new profile should be empty")
	}
	if got := p.Probability(opstate.Green); got != 0 {
		t.Errorf("empty profile probability = %v, want 0", got)
	}
	p.AddN(opstate.Green, 905)
	p.AddN(opstate.Red, 95)
	if p.Total() != 1000 {
		t.Errorf("Total = %d, want 1000", p.Total())
	}
	if got := p.Probability(opstate.Green); math.Abs(got-0.905) > 1e-12 {
		t.Errorf("P(green) = %v, want 0.905", got)
	}
	if got := p.Probability(opstate.Red); math.Abs(got-0.095) > 1e-12 {
		t.Errorf("P(red) = %v, want 0.095", got)
	}
	if got := p.Count(opstate.Gray); got != 0 {
		t.Errorf("Count(gray) = %d, want 0", got)
	}
	p.AddN(opstate.Gray, -5)
	if p.Total() != 1000 {
		t.Error("AddN with negative n should be a no-op")
	}
}

func TestProfileAdd(t *testing.T) {
	p := NewProfile()
	p.Add(opstate.Orange)
	p.Add(opstate.Orange)
	p.Add(opstate.Gray)
	if p.Count(opstate.Orange) != 2 || p.Count(opstate.Gray) != 1 || p.Total() != 3 {
		t.Errorf("counts wrong: %v", p)
	}
}

func TestProfileMerge(t *testing.T) {
	a, b := NewProfile(), NewProfile()
	a.AddN(opstate.Green, 10)
	b.AddN(opstate.Green, 5)
	b.AddN(opstate.Red, 5)
	a.Merge(b)
	if a.Count(opstate.Green) != 15 || a.Count(opstate.Red) != 5 || a.Total() != 20 {
		t.Errorf("merge wrong: %v", a)
	}
	a.Merge(nil) // must not panic
	if a.Total() != 20 {
		t.Error("nil merge changed profile")
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile()
	if got := p.String(); got != "(empty)" {
		t.Errorf("empty String = %q", got)
	}
	p.AddN(opstate.Green, 905)
	p.AddN(opstate.Red, 95)
	s := p.String()
	if !strings.Contains(s, "green=90.5%") || !strings.Contains(s, "red=9.5%") {
		t.Errorf("String = %q", s)
	}
	if strings.Contains(s, "orange") {
		t.Errorf("String should omit zero states: %q", s)
	}
}

func TestDominant(t *testing.T) {
	p := NewProfile()
	if _, ok := p.Dominant(); ok {
		t.Error("empty profile has no dominant state")
	}
	p.AddN(opstate.Green, 10)
	p.AddN(opstate.Gray, 20)
	if s, ok := p.Dominant(); !ok || s != opstate.Gray {
		t.Errorf("Dominant = %v, %v", s, ok)
	}
	// Tie: the more severe state wins.
	q := NewProfile()
	q.AddN(opstate.Green, 5)
	q.AddN(opstate.Red, 5)
	if s, _ := q.Dominant(); s != opstate.Red {
		t.Errorf("tie Dominant = %v, want red", s)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 0 {
		t.Errorf("n=0 interval = (%v, %v)", lo, hi)
	}
	// 95/1000: interval should bracket 0.095 and be fairly tight.
	lo, hi = WilsonInterval(95, 1000, 1.959964)
	if lo >= 0.095 || hi <= 0.095 {
		t.Errorf("interval (%v, %v) should bracket 0.095", lo, hi)
	}
	if hi-lo > 0.05 {
		t.Errorf("interval width %v too wide for n=1000", hi-lo)
	}
	// Degenerate all-success: still within [0, 1].
	lo, hi = WilsonInterval(1000, 1000, 1.959964)
	if lo < 0 || hi > 1 || lo >= hi {
		t.Errorf("all-success interval = (%v, %v)", lo, hi)
	}
}

func TestWilsonIntervalProperties(t *testing.T) {
	f := func(kSeed, nSeed uint16) bool {
		n := int(nSeed%5000) + 1
		k := int(kSeed) % (n + 1)
		lo, hi := WilsonInterval(k, n, 1.959964)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= p && p <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// At the edges the formula rounds inside the unit interval for many
	// n (k = n = 24 gave hi = 1 − 1 ulp); the bound must still hold.
	for n := 1; n <= 5000; n++ {
		if !f(0, uint16(n-1)) || !f(uint16(n), uint16(n-1)) {
			t.Fatalf("interval excludes k/n at the edge for n = %d", n)
		}
	}
}

func TestProfileInterval(t *testing.T) {
	p := NewProfile()
	p.AddN(opstate.Green, 905)
	p.AddN(opstate.Red, 95)
	lo, hi := p.Interval(opstate.Red)
	if lo >= 0.095 || hi <= 0.095 {
		t.Errorf("Interval(red) = (%v, %v), should bracket 0.095", lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample should error")
	}
	s, err := Summarize([]float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 4 || s.Max != 4 || s.Mean != 4 || s.P50 != 4 || s.Stddev != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err = Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-5.5) > 1e-12 {
		t.Errorf("mean = %v, want 5.5", s.Mean)
	}
	if math.Abs(s.P50-5.5) > 1e-12 {
		t.Errorf("p50 = %v, want 5.5", s.P50)
	}
	if s.P90 < 9 || s.P90 > 10 {
		t.Errorf("p90 = %v", s.P90)
	}
	// Input order must not matter and input must not be mutated.
	rev := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s2, err := Summarize(rev)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s {
		t.Error("summary depends on input order")
	}
	if rev[0] != 10 {
		t.Error("Summarize mutated its input")
	}
}
