// Package hash64 holds the module's one copy of its 64-bit
// non-cryptographic hashes: FNV-1a, which names persisted and shared
// content (store ids, ensemble fingerprints, job ids, ring positions,
// compressed-row groups), and the MurmurHash3 finalizer that spreads
// FNV-1a's clustered outputs. Their outputs are part of the module's
// on-disk and wire formats and must never change. Every function is
// small enough to inline at its call site.
package hash64

// Offset is the FNV-1a 64-bit offset basis: the hash of no bytes, and
// the seed of an AddByte/AddString chain.
const Offset uint64 = 14695981039346656037

// prime is the FNV-1a 64-bit prime.
const prime uint64 = 1099511628211

// AddByte folds one byte into the FNV-1a hash h.
func AddByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * prime }

// AddString folds every byte of s into the FNV-1a hash h.
func AddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = AddByte(h, s[i])
	}
	return h
}

// String is the FNV-1a hash of s.
func String(s string) uint64 { return AddString(Offset, s) }

// Bytes is the FNV-1a hash of b.
func Bytes(b []byte) uint64 {
	h := Offset
	for _, c := range b {
		h = AddByte(h, c)
	}
	return h
}

// Words is the FNV-1a hash of ws laid out as bytes, each word least
// significant byte first.
func Words(ws []uint64) uint64 {
	h := Offset
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h = AddByte(h, byte(w>>s))
		}
	}
	return h
}

// Mix is MurmurHash3's 64-bit finalizer: every input bit reaches every
// output bit, so keys FNV-1a leaves clustered spread apart.
func Mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
