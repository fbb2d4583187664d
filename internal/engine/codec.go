package engine

// Wire codec for compiled views. A CompressedMatrix is the expensive
// artifact of the serving tier — minutes of ensemble data distilled
// into a bit-packed matrix plus its deduplicated row view — and the
// sharded tier moves these between processes: a draining worker hands
// its hottest views to its successor, and operators can snapshot and
// restore caches. The format is versioned and self-validating: decode
// rejects anything that would not have come out of Compress, so a
// decoded view is bit-identical to compiling the same data locally.
//
// Format (version 1, all integers unsigned varints unless noted):
//
//	magic   "CTMX" (4 bytes)
//	version uvarint (currently 1)
//	nAssets uvarint, then per asset: uvarint length + UTF-8 bytes
//	rows    uvarint — source realizations
//	distinct uvarint — deduplicated pattern count (1..rows)
//	bits    distinct × stride uint64, little-endian fixed64
//	        (stride = ceil(nAssets/64); padding bits must be zero)
//	index   rows × uvarint — pattern index of each source realization,
//	        in realization order
//
// The per-row index stream carries the full source matrix (each row is
// its pattern, expanded) and the dedup structure at once: weights are
// derived by counting, and canonical first-occurrence order is
// enforced — pattern index d may first appear only after every index
// below d has appeared — so exactly one byte stream encodes any given
// compiled view.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"compoundthreat/internal/hash64"
)

// CompressedMatrixCodecVersion is the current wire-format version,
// carried in the stream and in the X-Codec-Version HTTP header of the
// serving tier's view export/import endpoints.
const CompressedMatrixCodecVersion = 1

// codecMagic starts every encoded view.
var codecMagic = [4]byte{'C', 'T', 'M', 'X'}

// Decode-side sanity bounds. They exist so a hostile or corrupt stream
// cannot make the decoder allocate unbounded memory before validation
// catches up with it; both are far above anything this module compiles.
const (
	maxCodecAssets = 1 << 16
	maxCodecRows   = 1 << 26
)

// ErrCodec wraps every decode failure, so callers can distinguish a
// malformed stream from I/O errors.
var ErrCodec = errors.New("engine: invalid compressed-matrix stream")

func codecErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
}

// EncodeCompressedMatrix writes the view and its source matrix in wire
// format. The source realization → pattern mapping is recovered by
// matching each source row against the distinct patterns (one hashed
// pass, the same grouping Compress performs).
func EncodeCompressedMatrix(w io.Writer, c *CompressedMatrix) error {
	if c == nil || c.src == nil {
		return errors.New("engine: encode nil compressed matrix")
	}
	m := c.src
	if c.rows != m.rows || c.stride != m.stride {
		return errors.New("engine: compressed view does not match its source matrix")
	}
	if m.rows == 0 || len(c.weights) == 0 {
		return errors.New("engine: encode empty compressed matrix")
	}
	buf := make([]byte, 0, 64+len(m.ids)*16+len(c.bits)*8+m.rows)
	buf = append(buf, codecMagic[:]...)
	buf = binary.AppendUvarint(buf, CompressedMatrixCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.ids)))
	for _, id := range m.ids {
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
	}
	buf = binary.AppendUvarint(buf, uint64(m.rows))
	buf = binary.AppendUvarint(buf, uint64(len(c.weights)))
	for _, word := range c.bits {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	// Index distinct patterns for the row walk. Single-word rows index
	// directly by word; wider rows go through the same FNV grouping
	// Compress uses.
	if c.stride == 1 {
		idx := make(map[uint64]int, len(c.weights))
		for d, word := range c.bits {
			idx[word] = d
		}
		for r := 0; r < m.rows; r++ {
			d, ok := idx[m.bits[r]]
			if !ok {
				return errors.New("engine: source row missing from compressed view")
			}
			buf = binary.AppendUvarint(buf, uint64(d))
		}
	} else {
		byHash := make(map[uint64][]int, len(c.weights))
		for d := 0; d < len(c.weights); d++ {
			h := hash64.Words(c.bits[d*c.stride : (d+1)*c.stride])
			byHash[h] = append(byHash[h], d)
		}
	rows:
		for r := 0; r < m.rows; r++ {
			row := m.bits[r*m.stride : (r+1)*m.stride]
			for _, d := range byHash[hash64.Words(row)] {
				if equalRow(c.bits[d*c.stride:(d+1)*c.stride], row) {
					buf = binary.AppendUvarint(buf, uint64(d))
					continue rows
				}
			}
			return errors.New("engine: source row missing from compressed view")
		}
	}
	_, err := w.Write(buf)
	return err
}

// DecodeCompressedMatrix reads one encoded view, reconstructing both
// the source FailureMatrix (every realization expanded from its
// pattern) and its CompressedMatrix, bit-identical to the encoder's
// originals. Any structural violation — unknown version, duplicate or
// empty asset IDs, nonzero padding bits, duplicate distinct patterns,
// out-of-range or non-canonically-ordered row indexes, unused
// patterns, trailing bytes — fails with an error wrapping ErrCodec.
func DecodeCompressedMatrix(r io.Reader) (*CompressedMatrix, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, codecErrorf("magic: %v", err)
	}
	if magic != codecMagic {
		return nil, codecErrorf("bad magic %q", magic[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, codecErrorf("version: %v", err)
	}
	if version != CompressedMatrixCodecVersion {
		return nil, codecErrorf("unsupported version %d (have %d)", version, CompressedMatrixCodecVersion)
	}
	nAssets, err := readBounded(br, "asset count", 1, maxCodecAssets)
	if err != nil {
		return nil, err
	}
	m := &FailureMatrix{
		ids:    make([]string, nAssets),
		col:    make(map[string]int, nAssets),
		stride: (nAssets + 63) / 64,
	}
	idBuf := make([]byte, 0, 64)
	for i := range m.ids {
		n, err := readBounded(br, "asset ID length", 1, 4096)
		if err != nil {
			return nil, err
		}
		if cap(idBuf) < n {
			idBuf = make([]byte, n)
		}
		idBuf = idBuf[:n]
		if _, err := io.ReadFull(br, idBuf); err != nil {
			return nil, codecErrorf("asset ID %d: %v", i, err)
		}
		id := string(idBuf)
		if _, dup := m.col[id]; dup {
			return nil, codecErrorf("duplicate asset ID %q", id)
		}
		m.ids[i] = id
		m.col[id] = i
	}
	rows, err := readBounded(br, "row count", 1, maxCodecRows)
	if err != nil {
		return nil, err
	}
	m.rows = rows
	distinct, err := readBounded(br, "distinct count", 1, rows)
	if err != nil {
		return nil, err
	}
	c := &CompressedMatrix{src: m, stride: m.stride, rows: rows}
	c.bits, err = readWords(br, distinct*m.stride)
	if err != nil {
		return nil, err
	}
	// Padding bits past nAssets in each row's last word must be zero —
	// Compress never produces them, and they would silently change
	// Pattern() results on a widened universe.
	if rem := nAssets & 63; rem != 0 {
		mask := ^(uint64(1)<<uint(rem) - 1)
		for d := 0; d < distinct; d++ {
			if c.bits[d*m.stride+m.stride-1]&mask != 0 {
				return nil, codecErrorf("distinct row %d has padding bits set", d)
			}
		}
	}
	for d := 1; d < distinct; d++ {
		row := c.bits[d*m.stride : (d+1)*m.stride]
		for e := 0; e < d; e++ {
			if equalRow(c.bits[e*m.stride:(e+1)*m.stride], row) {
				return nil, codecErrorf("distinct rows %d and %d are identical", e, d)
			}
		}
	}
	// Expand the index stream into the source matrix and the weights,
	// enforcing canonical first-occurrence order: index d may first
	// appear only once indexes 0..d-1 have all appeared.
	m.bits = make([]uint64, rows*m.stride)
	c.weights = make([]int, distinct)
	next := 0
	for r := 0; r < rows; r++ {
		d, err := readBounded(br, "row index", 0, distinct-1)
		if err != nil {
			return nil, fmt.Errorf("%w (row %d)", err, r)
		}
		if d > next {
			return nil, codecErrorf("row %d introduces pattern %d before pattern %d", r, d, next)
		}
		if d == next {
			next++
		}
		c.weights[d]++
		copy(m.bits[r*m.stride:(r+1)*m.stride], c.bits[d*m.stride:(d+1)*m.stride])
	}
	if next != distinct {
		return nil, codecErrorf("%d of %d distinct patterns never referenced", distinct-next, distinct)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, codecErrorf("trailing bytes after matrix")
	}
	return c, nil
}

// readBounded reads one uvarint and range-checks it as an int.
func readBounded(br *bufio.Reader, what string, lo, hi int) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, codecErrorf("%s: %v", what, err)
	}
	if v > uint64(hi) || v < uint64(lo) {
		return 0, codecErrorf("%s %d out of range [%d, %d]", what, v, lo, hi)
	}
	return int(v), nil
}

// readWords reads n little-endian uint64 words, growing the result in
// bounded chunks so a length-lying prefix on a short stream fails fast
// instead of allocating the claimed size up front.
func readWords(br *bufio.Reader, n int) ([]uint64, error) {
	const chunkWords = 64 << 10
	out := make([]uint64, 0, min(n, chunkWords))
	var raw [8 * 1024]byte
	for len(out) < n {
		want := min(n-len(out), len(raw)/8)
		if _, err := io.ReadFull(br, raw[:want*8]); err != nil {
			return nil, codecErrorf("distinct row bits: %v", err)
		}
		for i := 0; i < want; i++ {
			out = append(out, binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return out, nil
}

// EncodedSizeEstimate returns a rough upper bound on the encoded byte
// size of the view — enough for callers sizing transfer buffers or
// enforcing body caps before an export.
func (c *CompressedMatrix) EncodedSizeEstimate() int {
	if c == nil || c.src == nil {
		return 0
	}
	ids := 0
	for _, id := range c.src.ids {
		ids += len(id) + binary.MaxVarintLen64
	}
	return 4 + 5*binary.MaxVarintLen64 + ids + len(c.bits)*8 +
		c.rows*varintLen(uint64(max(len(c.weights)-1, 0)))
}

// varintLen returns the encoded size of v as a uvarint.
func varintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
