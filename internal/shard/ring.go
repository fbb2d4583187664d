package shard

import (
	"sort"
	"strconv"

	"compoundthreat/internal/hash64"
)

// Ring is a consistent-hash ring over a fixed set of backend indexes.
// Each backend owns Replicas points on the ring; a key's sequence is
// the distinct backends encountered walking clockwise from the key's
// hash. The ring is immutable after construction — backend failure is
// handled by the caller skipping dead entries in Seq order, which
// preserves the consistent-hashing property: keys on a dead backend
// spill to their next ring successor, everything else stays put.
type Ring struct {
	points []ringPoint
	n      int
}

// ringPoint is one virtual node: a replica hash and the backend index
// that owns it.
type ringPoint struct {
	hash uint64
	idx  int
}

// NewRing builds a ring over backends 0..n-1 with the given number of
// virtual nodes per backend (more replicas, smoother balance; 64 is a
// good default for small pools).
func NewRing(n, replicas int) *Ring {
	if n < 1 {
		n = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{points: make([]ringPoint, 0, n*replicas), n: n}
	for idx := 0; idx < n; idx++ {
		for v := 0; v < replicas; v++ {
			h := hash64.String("backend-" + strconv.Itoa(idx) + "-" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, idx: idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.idx < b.idx // total order keeps construction deterministic
	})
	return r
}

// Backends reports the number of backends on the ring.
func (r *Ring) Backends() int { return r.n }

// Seq returns the key's full preference order: every backend index
// exactly once, starting at the key's ring successor and continuing
// clockwise. Element 0 is the key's home; the rest is its failover
// order, so skipping unhealthy prefixes is itself consistent.
func (r *Ring) Seq(key string) []int {
	h := hash64.String(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(seq) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			seq = append(seq, p.idx)
		}
	}
	return seq
}
