package hash64

import (
	"encoding/binary"
	"testing"
)

// TestFNV1aVectors checks the published FNV-1a 64 test vectors and that
// every entry point agrees on the same bytes.
func TestFNV1aVectors(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := String(tt.in); got != tt.want {
			t.Errorf("String(%q) = %016x, want %016x", tt.in, got, tt.want)
		}
		if got := Bytes([]byte(tt.in)); got != tt.want {
			t.Errorf("Bytes(%q) = %016x, want %016x", tt.in, got, tt.want)
		}
		h := Offset
		for i := 0; i < len(tt.in); i++ {
			h = AddByte(h, tt.in[i])
		}
		if h != tt.want {
			t.Errorf("AddByte chain over %q = %016x, want %016x", tt.in, h, tt.want)
		}
	}
	if got, want := AddString(String("foo"), "bar"), String("foobar"); got != want {
		t.Errorf("AddString continuation = %016x, want %016x", got, want)
	}
}

// TestWordsIsLittleEndianBytes checks Words hashes each word's bytes
// least significant first.
func TestWordsIsLittleEndianBytes(t *testing.T) {
	ws := []uint64{0x0123456789abcdef, 0, ^uint64(0)}
	var buf []byte
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	if got, want := Words(ws), Bytes(buf); got != want {
		t.Errorf("Words = %016x, want %016x", got, want)
	}
	if got := Words(nil); got != Offset {
		t.Errorf("Words(nil) = %016x, want the offset basis", got)
	}
}

// TestMix pins the finalizer: zero is its fixed point, and one known
// input maps to its MurmurHash3 fmix64 output.
func TestMix(t *testing.T) {
	if got := Mix(0); got != 0 {
		t.Errorf("Mix(0) = %016x, want 0", got)
	}
	if got, want := Mix(1), uint64(0xb456bcfc34c2cb2c); got != want {
		t.Errorf("Mix(1) = %016x, want %016x", got, want)
	}
}
