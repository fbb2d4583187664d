package engine

// Row deduplication. The paper's central empirical observation (§VI)
// is that flood outcomes are heavily correlated across realizations —
// Honolulu and Waiau flood together in every one of the 1000 ADCIRC
// realizations — so a compiled FailureMatrix has far fewer *distinct*
// rows than realizations. A CompressedMatrix groups identical rows
// into (pattern, multiplicity) pairs once; the evaluation kernel
// (Cell.Add) then touches each distinct row exactly once per cell and
// adds its multiplicity to the outcome histogram. Because operational-state counts are integers and
// the attacker is a pure function of the flooded pattern, the weighted
// histogram is bit-identical to walking every realization.

import (
	"compoundthreat/internal/hash64"
	"compoundthreat/internal/obs"
)

// CompressedMatrix is the deduplicated view of a FailureMatrix:
// distinct rows in first-occurrence order, each with the number of
// source realizations that share it. It is immutable after
// construction, so any number of workers may read it concurrently.
type CompressedMatrix struct {
	src     *FailureMatrix
	stride  int
	bits    []uint64 // distinct rows × stride, first-occurrence order
	weights []int    // multiplicity per distinct row
	rows    int      // input realizations (sum of weights)
}

// linearScanLimit bounds the distinct-row count up to which the
// single-word fast path uses a plain linear scan: ensembles in this
// module have a handful of distinct patterns, where scanning a short
// slice beats hashing every row. Past the bound the pass spills to a
// map index for the remaining rows, so adversarial all-distinct
// ensembles stay O(rows) with a bounded constant.
const linearScanLimit = 64

// Compress deduplicates the matrix rows in one hash-grouped pass.
// Row hashing parallelizes across up to workers goroutines (0 =
// GOMAXPROCS, 1 = inline); grouping itself is a deterministic sequential
// pass over the hashes, so the distinct-row order (first occurrence)
// and weights are identical for every worker count. Single-word
// matrices (at most 64 assets) with few distinct patterns skip the
// hashing pass entirely.
func Compress(m *FailureMatrix, workers int) *CompressedMatrix {
	rec := obs.Default()
	defer rec.StartSpan("engine.compress_ns").End()
	c := &CompressedMatrix{src: m, stride: m.stride, rows: m.rows}
	if m.stride == 1 {
		compressWords(c, m)
		recordCompression(rec, c)
		return c
	}

	// Hash every row up front; this is the only O(rows × stride) part
	// and every row is independent.
	hashes := make([]uint64, m.rows)
	hashRange := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			hashes[r] = hash64.Words(m.bits[r*m.stride : (r+1)*m.stride])
		}
	}
	if workers = Workers(workers); workers > 1 && m.rows >= 2*workers {
		parts := chunks(m.rows, workers)
		_ = ForEach(workers, len(parts), func(i int) error {
			hashRange(parts[i].lo, parts[i].hi)
			return nil
		})
	} else {
		hashRange(0, m.rows)
	}

	// Group rows by hash in realization order, comparing words on hash
	// collisions, so distinct rows come out in first-occurrence order.
	byHash := make(map[uint64][]int, m.rows/4+1)
rows:
	for r := 0; r < m.rows; r++ {
		row := m.bits[r*m.stride : (r+1)*m.stride]
		for _, d := range byHash[hashes[r]] {
			if equalRow(c.bits[d*c.stride:(d+1)*c.stride], row) {
				c.weights[d]++
				continue rows
			}
		}
		d := len(c.weights)
		c.bits = append(c.bits, row...)
		c.weights = append(c.weights, 1)
		byHash[hashes[r]] = append(byHash[hashes[r]], d)
	}

	recordCompression(rec, c)
	return c
}

// compressWords groups single-word rows in realization order: a linear
// scan over the distinct words while they stay few (the expected case —
// correlated flooding yields a handful of patterns), spilling to a map
// index if the ensemble turns out to be pattern-rich. Both phases keep
// first-occurrence order, so the result is identical to the hashed
// path.
func compressWords(c *CompressedMatrix, m *FailureMatrix) {
	var index map[uint64]int
	for r := 0; r < m.rows; r++ {
		w := m.bits[r]
		if index == nil {
			found := false
			for d, dw := range c.bits {
				if dw == w {
					c.weights[d]++
					found = true
					break
				}
			}
			if found {
				continue
			}
			if len(c.bits) == linearScanLimit {
				index = make(map[uint64]int, 2*linearScanLimit)
				for d, dw := range c.bits {
					index[dw] = d
				}
			}
		}
		if index != nil {
			if d, ok := index[w]; ok {
				c.weights[d]++
				continue
			}
			index[w] = len(c.bits)
		}
		c.bits = append(c.bits, w)
		c.weights = append(c.weights, 1)
	}
}

// recordCompression flushes the dedup counters once per compression.
func recordCompression(rec *obs.Recorder, c *CompressedMatrix) {
	if rec == nil {
		return
	}
	rec.Counter("engine.dedup_input_rows").Add(int64(c.rows))
	rec.Counter("engine.distinct_patterns").Add(int64(len(c.weights)))
	// Per-compression ratio in basis points (10000 = incompressible).
	if c.rows > 0 {
		rec.Histogram("engine.dedup_ratio").Observe(int64(len(c.weights)) * 10000 / int64(c.rows))
	}
}

// equalRow compares two stride-sized row slices.
func equalRow(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Source returns the matrix this view was compressed from.
func (c *CompressedMatrix) Source() *FailureMatrix { return c.src }

// Rows returns the number of input realizations (the sum of weights).
func (c *CompressedMatrix) Rows() int { return c.rows }

// DistinctRows returns the number of distinct failure patterns.
func (c *CompressedMatrix) DistinctRows() int { return len(c.weights) }

// Weight returns the multiplicity of distinct row i: how many source
// realizations share its pattern.
func (c *CompressedMatrix) Weight(i int) int { return c.weights[i] }

// Ratio returns distinct/input rows in (0, 1]: 1.0 means the ensemble
// was incompressible (every realization distinct).
func (c *CompressedMatrix) Ratio() float64 {
	if c.rows == 0 {
		return 1
	}
	return float64(len(c.weights)) / float64(c.rows)
}

// Pattern packs the flags of the given columns in distinct row i into
// a bitmask, exactly like FailureMatrix.Pattern.
func (c *CompressedMatrix) Pattern(i int, cols []int) uint64 {
	base := i * c.stride
	var p uint64
	for j, col := range cols {
		if c.bits[base+col>>6]&(1<<uint(col&63)) != 0 {
			p |= 1 << uint(j)
		}
	}
	return p
}

// Gather appends the flags of the given columns in distinct row i to
// dst, exactly like FailureMatrix.Gather.
func (c *CompressedMatrix) Gather(dst []bool, i int, cols []int) []bool {
	base := i * c.stride
	for _, col := range cols {
		dst = append(dst, c.bits[base+col>>6]&(1<<uint(col&63)) != 0)
	}
	return dst
}
