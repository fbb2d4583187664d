package shard

import (
	"fmt"
	"strings"
	"testing"

	"compoundthreat/internal/obs"
)

// TestPinnedRingSeq pins the ring's preference order for sixteen
// fingerprint-like keys at the router's default of 64 replicas. A change to the ring hash moves
// these and re-shards every key in a running fleet.
func TestPinnedRingSeq(t *testing.T) {
	for _, tt := range []struct {
		backends int
		want     string
	}{
		{2, "[0 1] [1 0] [0 1] [0 1] [0 1] [1 0] [0 1] [1 0] [0 1] [0 1] [0 1] [0 1] [0 1] [0 1] [0 1] [0 1]"},
		{3, "[2 0 1] [1 2 0] [2 0 1] [2 0 1] [2 0 1] [1 2 0] [0 1 2] [1 2 0] [2 0 1] [0 1 2] [2 0 1] [2 0 1] [2 0 1] [2 0 1] [2 0 1] [2 0 1]"},
	} {
		r := NewRing(tt.backends, 64)
		var got []string
		for i := 0; i < 16; i++ {
			got = append(got, fmt.Sprint(r.Seq(fmt.Sprintf("%016x|view", uint64(i)*0x9e3779b97f4a7c15))))
		}
		if s := strings.Join(got, " "); s != tt.want {
			t.Errorf("%d backends: Seq over 16 keys = %s, want %s", tt.backends, s, tt.want)
		}
	}
}

// TestPinnedDoorkeeperSlots pins the doorkeeper slot pair and the
// stored hash for one key, observed through secondSight alone: the
// first sighting fills the first slot; with that slot taken by another
// hash, the next sighting lands in the second.
func TestPinnedDoorkeeperSlots(t *testing.T) {
	const key = "00000000cafef00d|sweep|honolulu-cc"
	m := newMemo(obs.New())
	m.secondSight(key)
	first, h := -1, uint64(0)
	for i, v := range m.door {
		if v != 0 {
			first, h = i, v
		}
	}
	m.door[first] = 2 // an even value: never a stored hash
	m.secondSight(key)
	second := -1
	for i, v := range m.door {
		if v == h {
			second = i
		}
	}
	if got := fmt.Sprintf("%d %d %016x", first, second, h); got != "1595 3872 f294af20b770e63b" {
		t.Errorf("doorkeeper slots and hash = %s", got)
	}
}
