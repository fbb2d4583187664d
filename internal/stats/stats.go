package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"compoundthreat/internal/opstate"
)

// Profile counts operational-state outcomes over an ensemble. The
// state space is the four-state severity scale of Table I, so counts
// live in a fixed array: constructing and filling a profile performs
// exactly one allocation, which matters in sweeps that build one
// profile per (configuration, scenario) cell.
type Profile struct {
	counts [int(opstate.Gray) + 1]int
	total  int
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{}
}

// Add records one outcome.
func (p *Profile) Add(s opstate.State) {
	p.counts[s]++
	p.total++
}

// AddN records n outcomes of the same state. Negative n is ignored.
func (p *Profile) AddN(s opstate.State, n int) {
	if n <= 0 {
		return
	}
	p.counts[s] += n
	p.total += n
}

// Total returns the number of recorded outcomes.
func (p *Profile) Total() int { return p.total }

// Count returns how many outcomes had the given state.
func (p *Profile) Count(s opstate.State) int { return p.counts[s] }

// Probability returns the fraction of outcomes in the given state
// (0 for an empty profile).
func (p *Profile) Probability(s opstate.State) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.counts[s]) / float64(p.total)
}

// Interval returns the 95% Wilson confidence interval for the
// probability of the given state.
func (p *Profile) Interval(s opstate.State) (lo, hi float64) {
	return WilsonInterval(p.counts[s], p.total, 1.959964)
}

// Merge adds every outcome of other into p.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for s, n := range other.counts {
		p.counts[s] += n
	}
	p.total += other.total
}

// String renders the profile as "green=90.5% red=9.5%", listing only
// non-zero states in severity order.
func (p *Profile) String() string {
	var parts []string
	for _, s := range opstate.States() {
		if p.counts[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", s, 100*p.Probability(s)))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// Dominant returns the most probable state (ties broken toward the
// more severe state) and its probability. The second return is false
// for an empty profile.
func (p *Profile) Dominant() (opstate.State, bool) {
	if p.total == 0 {
		return 0, false
	}
	best := opstate.Green
	bestCount := -1
	for _, s := range opstate.States() {
		if c := p.counts[s]; c > bestCount || (c == bestCount && s.Worse(best)) {
			best, bestCount = s, c
		}
	}
	return best, true
}

// WilsonInterval returns the Wilson score interval for k successes out
// of n trials with normal quantile z (1.96 for 95%). It returns (0, 0)
// for n == 0. At k == 0 and k == n the bound at the edge is exactly 0
// or 1, as in exact arithmetic: the floating-point formula can land one
// ulp inside, which would exclude the point estimate k/n.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 0
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return lo, hi
}

// Summary describes a float64 sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, Stddev  float64
	P50, P90, P99 float64
}

// Summarize computes a summary of the sample. It errors on an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		P50:    quantile(sorted, 0.50),
		P90:    quantile(sorted, 0.90),
		P99:    quantile(sorted, 0.99),
	}, nil
}

// quantile returns the q-quantile of a sorted sample by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
