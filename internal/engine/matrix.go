package engine

import (
	"errors"
	"fmt"
	"math/bits"

	"compoundthreat/internal/obs"
)

// FailureMatrix is a bit-packed (realization × asset) failure table
// compiled once from a disaster ensemble. Row r holds one bit per
// column: bit c set means asset c failed in realization r. After
// compilation every access is pure slice arithmetic — no map lookups,
// no interface calls, no allocations — and the matrix is immutable, so
// any number of workers may read it concurrently.
type FailureMatrix struct {
	ids    []string
	col    map[string]int
	rows   int
	stride int // uint64 words per row
	bits   []uint64
}

// NewFailureMatrix compiles the ensemble's failure flags for the given
// assets. Asset IDs are resolved through the source exactly once; the
// source's AppendFailureVector is used when available so compilation
// reuses a single row buffer.
func NewFailureMatrix(src Source, assetIDs []string) (*FailureMatrix, error) {
	if src == nil {
		return nil, errors.New("engine: nil source")
	}
	if len(assetIDs) == 0 {
		return nil, errors.New("engine: no assets")
	}
	rec := obs.Default()
	defer rec.StartSpan("engine.matrix_compile_ns").End()
	m := &FailureMatrix{
		ids:    append([]string(nil), assetIDs...),
		col:    make(map[string]int, len(assetIDs)),
		rows:   src.Size(),
		stride: (len(assetIDs) + 63) / 64,
	}
	for i, id := range m.ids {
		if _, dup := m.col[id]; dup {
			return nil, fmt.Errorf("engine: duplicate asset %q", id)
		}
		m.col[id] = i
	}
	m.bits = make([]uint64, m.rows*m.stride)
	if ca, ok := src.(ColumnAppender); ok {
		// Column-major fast path: resolve each asset once, fetch its
		// whole realization column as a bitset, and transpose by walking
		// only the set bits — failures are sparse, so this touches far
		// fewer cells than a row-major walk over every (row, asset) pair.
		words := (m.rows + 63) / 64
		colbuf := make([]uint64, 0, words)
		for c, id := range m.ids {
			col, err := ca.AppendFailureBits(colbuf[:0], id)
			if err != nil {
				return nil, fmt.Errorf("engine: asset %q: %w", id, err)
			}
			if len(col) != words {
				return nil, fmt.Errorf("engine: asset %q: got %d column words, want %d", id, len(col), words)
			}
			if rem := m.rows & 63; rem != 0 {
				col[words-1] &= 1<<uint(rem) - 1
			}
			word, bit := c>>6, uint64(1)<<uint(c&63)
			for w, bw := range col {
				base := w * 64
				for bw != 0 {
					r := base + bits.TrailingZeros64(bw)
					bw &= bw - 1
					m.bits[r*m.stride+word] |= bit
				}
			}
			colbuf = col[:0]
		}
	} else {
		ap, _ := src.(VectorAppender)
		buf := make([]bool, 0, len(m.ids))
		for r := 0; r < m.rows; r++ {
			var (
				vec []bool
				err error
			)
			if ap != nil {
				vec, err = ap.AppendFailureVector(buf[:0], r, m.ids)
				buf = vec[:0]
			} else {
				vec, err = src.FailureVector(r, m.ids)
			}
			if err != nil {
				return nil, fmt.Errorf("engine: realization %d: %w", r, err)
			}
			if len(vec) != len(m.ids) {
				return nil, fmt.Errorf("engine: realization %d: got %d flags, want %d", r, len(vec), len(m.ids))
			}
			base := r * m.stride
			for c, failed := range vec {
				if failed {
					m.bits[base+c>>6] |= 1 << uint(c&63)
				}
			}
		}
	}
	if rec != nil {
		rec.Counter("engine.matrices_compiled").Add(1)
		rec.Counter("engine.matrix_rows").Add(int64(m.rows))
		rec.Counter("engine.matrix_cells").Add(int64(m.rows) * int64(len(m.ids)))
	}
	return m, nil
}

// Rows returns the number of realizations.
func (m *FailureMatrix) Rows() int { return m.rows }

// Assets returns the asset IDs in column order.
func (m *FailureMatrix) Assets() []string { return append([]string(nil), m.ids...) }

// Column returns the column index of an asset.
func (m *FailureMatrix) Column(assetID string) (int, bool) {
	c, ok := m.col[assetID]
	return c, ok
}

// Columns resolves several asset IDs to column indices.
func (m *FailureMatrix) Columns(assetIDs []string) ([]int, error) {
	return m.ColumnsAppend(make([]int, 0, len(assetIDs)), assetIDs)
}

// ColumnsAppend is the allocation-free variant of Columns: it appends
// the resolved column indices to dst and returns the extended slice.
func (m *FailureMatrix) ColumnsAppend(dst []int, assetIDs []string) ([]int, error) {
	for _, id := range assetIDs {
		c, ok := m.col[id]
		if !ok {
			return nil, fmt.Errorf("engine: asset %q not in failure matrix", id)
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// Failed reports cell (r, c).
func (m *FailureMatrix) Failed(r, c int) bool {
	return m.bits[r*m.stride+c>>6]&(1<<uint(c&63)) != 0
}

// Pattern packs the flags of the given columns in realization r into a
// bitmask: bit j of the result is the flag of cols[j]. len(cols) must
// be at most 64.
func (m *FailureMatrix) Pattern(r int, cols []int) uint64 {
	base := r * m.stride
	var p uint64
	for j, c := range cols {
		if m.bits[base+c>>6]&(1<<uint(c&63)) != 0 {
			p |= 1 << uint(j)
		}
	}
	return p
}

// Gather appends the flags of the given columns in realization r to
// dst and returns the extended slice. With a pre-sized dst it performs
// no allocations.
func (m *FailureMatrix) Gather(dst []bool, r int, cols []int) []bool {
	base := r * m.stride
	for _, c := range cols {
		dst = append(dst, m.bits[base+c>>6]&(1<<uint(c&63)) != 0)
	}
	return dst
}

// FailureCount returns how many realizations fail column c.
func (m *FailureMatrix) FailureCount(c int) int {
	var n int
	for r := 0; r < m.rows; r++ {
		if m.Failed(r, c) {
			n++
		}
	}
	return n
}
