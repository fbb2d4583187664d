package engine_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"compoundthreat/internal/engine"
	"compoundthreat/internal/threat"
	"compoundthreat/internal/topology"
)

// encode round-trips through the exported codec, failing the test on
// any error.
func encode(t testing.TB, cm *engine.CompressedMatrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := engine.EncodeCompressedMatrix(&buf, cm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameView checks that two compiled views are bit-identical
// through the exported API: same assets, same source matrix cells,
// same distinct rows, weights, and patterns.
func assertSameView(t *testing.T, got, want *engine.CompressedMatrix) {
	t.Helper()
	gm, wm := got.Source(), want.Source()
	gids, wids := gm.Assets(), wm.Assets()
	if len(gids) != len(wids) {
		t.Fatalf("asset count %d, want %d", len(gids), len(wids))
	}
	for i := range wids {
		if gids[i] != wids[i] {
			t.Fatalf("asset %d = %q, want %q", i, gids[i], wids[i])
		}
	}
	if gm.Rows() != wm.Rows() {
		t.Fatalf("matrix rows %d, want %d", gm.Rows(), wm.Rows())
	}
	for r := 0; r < wm.Rows(); r++ {
		for c := range wids {
			if gm.Failed(r, c) != wm.Failed(r, c) {
				t.Fatalf("cell (%d, %d) = %v, want %v", r, c, gm.Failed(r, c), wm.Failed(r, c))
			}
		}
	}
	if got.Rows() != want.Rows() || got.DistinctRows() != want.DistinctRows() {
		t.Fatalf("compressed shape (%d, %d), want (%d, %d)",
			got.Rows(), got.DistinctRows(), want.Rows(), want.DistinctRows())
	}
	cols := make([]int, len(wids))
	for i := range cols {
		cols[i] = i
	}
	// Compare up to 64 columns per pattern call; wider universes walk
	// the columns in chunks.
	for d := 0; d < want.DistinctRows(); d++ {
		if got.Weight(d) != want.Weight(d) {
			t.Fatalf("weight %d = %d, want %d", d, got.Weight(d), want.Weight(d))
		}
		for lo := 0; lo < len(cols); lo += 64 {
			hi := min(lo+64, len(cols))
			if g, w := got.Pattern(d, cols[lo:hi]), want.Pattern(d, cols[lo:hi]); g != w {
				t.Fatalf("distinct row %d cols [%d,%d) pattern %x, want %x", d, lo, hi, g, w)
			}
		}
	}
}

// TestCodecRoundTrip encodes compiled views over random ensembles —
// including a 70-asset universe so multi-word rows are covered — and
// asserts the decoded view is bit-identical, and that a weighted
// evaluation over the decoded view matches the original exactly.
func TestCodecRoundTrip(t *testing.T) {
	narrow := []string{"a", "b", "c", "d", "e"}
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = "asset-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	for _, tc := range []struct {
		name   string
		assets []string
		rows   int
	}{
		{"narrow", narrow, 400},
		{"wide", wide, 128},
		{"single-row", narrow, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := randomEnsemble(t, 7, tc.rows, tc.assets)
			m, err := engine.NewFailureMatrix(e, tc.assets)
			if err != nil {
				t.Fatal(err)
			}
			cm := engine.Compress(m, 1)
			back, err := engine.DecodeCompressedMatrix(bytes.NewReader(encode(t, cm)))
			if err != nil {
				t.Fatal(err)
			}
			assertSameView(t, back, cm)

			cfg := topology.NewConfig666(tc.assets[0], tc.assets[1], tc.assets[2])
			tables := engine.NewTables()
			wantCounts, err := tables.Counts(cm, cfg, threat.Hurricane.Capability())
			if err != nil {
				t.Fatal(err)
			}
			gotCounts, err := tables.Counts(back, cfg, threat.Hurricane.Capability())
			if err != nil {
				t.Fatal(err)
			}
			if gotCounts != wantCounts {
				t.Fatalf("decoded evaluation %v, want %v", gotCounts, wantCounts)
			}
		})
	}
}

// TestCodecCanonical asserts exactly one byte stream encodes a view:
// re-encoding a decoded view reproduces the original bytes.
func TestCodecCanonical(t *testing.T) {
	assets := []string{"honolulu-cc", "waiau-plant", "kahe-plant", "drfortress"}
	e := randomEnsemble(t, 3, 250, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	cm := engine.Compress(m, 0)
	wire := encode(t, cm)
	back, err := engine.DecodeCompressedMatrix(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if rewire := encode(t, back); !bytes.Equal(rewire, wire) {
		t.Fatalf("re-encode differs: %d bytes vs %d", len(rewire), len(wire))
	}
	if est := cm.EncodedSizeEstimate(); est < len(wire) {
		t.Fatalf("EncodedSizeEstimate() = %d below actual %d", est, len(wire))
	}
}

// TestCodecDecodeErrors feeds structurally broken streams and asserts
// each is rejected with ErrCodec rather than accepted or panicking.
func TestCodecDecodeErrors(t *testing.T) {
	assets := []string{"a", "b", "c"}
	e := randomEnsemble(t, 11, 50, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		t.Fatal(err)
	}
	valid := encode(t, engine.Compress(m, 1))
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"truncated":   valid[:len(valid)/2],
		"trailing":    mutate(func(b []byte) []byte { return append(b, 0) }),
	}
	for name, input := range cases {
		if _, err := engine.DecodeCompressedMatrix(bytes.NewReader(input)); !errors.Is(err, engine.ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
	if _, err := engine.DecodeCompressedMatrix(strings.NewReader("")); !errors.Is(err, engine.ErrCodec) {
		t.Errorf("empty reader: err = %v, want ErrCodec", err)
	}
}

// TestCodecEncodeRejectsNil covers the encoder's own guards.
func TestCodecEncodeRejectsNil(t *testing.T) {
	var buf bytes.Buffer
	if err := engine.EncodeCompressedMatrix(&buf, nil); err == nil {
		t.Fatal("encoding nil succeeded")
	}
}

// FuzzDecodeCompressedMatrix asserts the decoder never panics on
// arbitrary bytes, and that anything it accepts is internally
// consistent and re-encodes to the identical byte stream (the
// canonical-encoding property the warm-handoff path relies on).
func FuzzDecodeCompressedMatrix(f *testing.F) {
	assets := []string{"a", "b", "c", "d"}
	e := randomEnsemble(f, 5, 60, assets)
	m, err := engine.NewFailureMatrix(e, assets)
	if err != nil {
		f.Fatal(err)
	}
	valid := encode(f, engine.Compress(m, 1))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("CTMX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		cm, err := engine.DecodeCompressedMatrix(bytes.NewReader(input))
		if err != nil {
			if cm != nil {
				t.Fatal("decode returned both a view and an error")
			}
			return
		}
		sum := 0
		for d := 0; d < cm.DistinctRows(); d++ {
			if w := cm.Weight(d); w < 1 {
				t.Fatalf("weight %d = %d", d, w)
			} else {
				sum += w
			}
		}
		if sum != cm.Rows() {
			t.Fatalf("weights sum to %d, want %d", sum, cm.Rows())
		}
		var buf bytes.Buffer
		if err := engine.EncodeCompressedMatrix(&buf, cm); err != nil {
			t.Fatalf("re-encode accepted view: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), input) {
			t.Fatalf("accepted stream is not canonical: re-encode differs (%d vs %d bytes)",
				buf.Len(), len(input))
		}
	})
}
