package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Store, int) {
	t.Helper()
	s, cleaned, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, cleaned
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	data := []byte(`{"hello":"world"}`)
	id := ContentID(data)
	added, err := s.Put("topology", id, data)
	if err != nil || !added {
		t.Fatalf("Put: added=%v err=%v", added, err)
	}
	got, err := s.Get("topology", id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if !s.Has("topology", id) {
		t.Fatal("Has = false after Put")
	}
	if s.Len() != 1 || s.Bytes() != int64(len(data)) {
		t.Fatalf("Len=%d Bytes=%d, want 1/%d", s.Len(), s.Bytes(), len(data))
	}
}

func TestPutIdempotent(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	data := []byte("payload")
	if added, err := s.Put("topology", "aaaa", data); err != nil || !added {
		t.Fatalf("first Put: added=%v err=%v", added, err)
	}
	if added, err := s.Put("topology", "aaaa", data); err != nil || added {
		t.Fatalf("second Put: added=%v err=%v, want false/nil", added, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestPutRejectsInvalidKeys(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	for _, bad := range [][2]string{
		{"", "id"}, {"kind", ""}, {"../etc", "id"}, {"kind", "a/b"},
		{"kind", "UPPER"}, {"kind", "dot."},
	} {
		if _, err := s.Put(bad[0], bad[1], []byte("x")); err == nil {
			t.Errorf("Put(%q, %q) accepted, want error", bad[0], bad[1])
		}
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	if _, err := s.Get("topology", "ffff"); err == nil {
		t.Fatal("Get of missing key succeeded")
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	blobs := map[string][]byte{}
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf(`{"n":%d}`, i))
		id := ContentID(data)
		blobs[id] = data
		if _, err := s.Put("ensemble", id, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s2, cleaned := mustOpen(t, dir, Options{})
	if cleaned != 0 {
		t.Fatalf("cleaned = %d, want 0", cleaned)
	}
	if s2.Len() != 5 {
		t.Fatalf("Len after reopen = %d, want 5", s2.Len())
	}
	for id, data := range blobs {
		got, err := s2.Get("ensemble", id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%s) after reopen: %q, %v", id, got, err)
		}
	}
}

func TestOpenCleansOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Put("topology", "aaaa", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-Put: a stray temp file next to a committed one.
	orphan := filepath.Join(dir, "topology", "bbbb.123.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, cleaned := mustOpen(t, dir, Options{})
	if cleaned != 1 {
		t.Fatalf("cleaned = %d, want 1", cleaned)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan temp file survived Open")
	}
	if s2.Len() != 1 || !s2.Has("topology", "aaaa") {
		t.Fatal("committed entry lost during cleanup")
	}
}

func TestOpenDropsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	if _, err := s.Put("topology", "aaaa", []byte("good")); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "topology", "bbbb.json")
	if err := os.WriteFile(bad, []byte("threatstore1 0000000000000000 4\nevil"), 0o644); err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "topology", "cccc.json")
	if err := os.WriteFile(trunc, []byte("no newline at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, cleaned := mustOpen(t, dir, Options{})
	if cleaned != 2 {
		t.Fatalf("cleaned = %d, want 2", cleaned)
	}
	if s2.Len() != 1 || !s2.Has("topology", "aaaa") {
		t.Fatal("good entry lost while dropping corrupt ones")
	}
	for _, p := range []string{bad, trunc} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("corrupt file %s survived Open", p)
		}
	}
}

func TestGetDropsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	data := []byte("original")
	if _, err := s.Put("topology", "aaaa", data); err != nil {
		t.Fatal(err)
	}
	// Tamper with the committed file behind the store's back.
	path := filepath.Join(dir, "topology", "aaaa.json")
	if err := os.WriteFile(path, []byte("threatstore1 ffffffffffffffff 8\ntampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("topology", "aaaa"); err == nil {
		t.Fatal("Get of tampered entry succeeded")
	}
	if s.Has("topology", "aaaa") {
		t.Fatal("tampered entry still indexed after failed Get")
	}
}

func TestGCEvictsByCount(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{MaxEntries: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("blob-%d", i))
		id := ContentID(data)
		ids = append(ids, id)
		if _, err := s.Put("ensemble", id, data); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, old := range ids[:2] {
		if s.Has("ensemble", old) {
			t.Errorf("oldest entry %s survived count GC", old)
		}
	}
	for _, kept := range ids[2:] {
		if !s.Has("ensemble", kept) {
			t.Errorf("recent entry %s evicted", kept)
		}
	}
}

func TestGCEvictsByBytes(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 100})
	big := bytes.Repeat([]byte("x"), 60)
	idA := "aaaaaaaaaaaaaaaa"
	idB := "bbbbbbbbbbbbbbbb"
	if _, err := s.Put("ensemble", idA, big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("ensemble", idB, big); err != nil {
		t.Fatal(err)
	}
	if s.Has("ensemble", idA) {
		t.Fatal("oldest entry survived byte GC")
	}
	if !s.Has("ensemble", idB) {
		t.Fatal("newest entry evicted by its own Put")
	}
	if s.Bytes() != 60 {
		t.Fatalf("Bytes = %d, want 60", s.Bytes())
	}
}

func TestGCNeverEvictsFreshOversizedPut(t *testing.T) {
	// A single object above MaxBytes still commits; GC spares the
	// triggering key so the write path cannot delete its own result.
	s, _ := mustOpen(t, t.TempDir(), Options{MaxBytes: 10})
	data := bytes.Repeat([]byte("y"), 50)
	if added, err := s.Put("ensemble", "cccccccccccccccc", data); err != nil || !added {
		t.Fatalf("Put: added=%v err=%v", added, err)
	}
	if !s.Has("ensemble", "cccccccccccccccc") {
		t.Fatal("oversized fresh entry evicted by its own Put")
	}
}

func TestDelete(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	data := []byte("gone soon")
	id := ContentID(data)
	if _, err := s.Put("topology", id, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("topology", id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Has("topology", id) || s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("entry still present after Delete")
	}
	if err := s.Delete("topology", id); err != nil {
		t.Fatalf("Delete of missing key: %v", err)
	}
}

func TestListSortedPerKind(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir(), Options{})
	for _, id := range []string{"cccc", "aaaa", "bbbb"} {
		if _, err := s.Put("topology", id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put("ensemble", "dddd", []byte("other kind")); err != nil {
		t.Fatal(err)
	}
	got := s.List("topology")
	if len(got) != 3 {
		t.Fatalf("List returned %d entries, want 3", len(got))
	}
	for i, want := range []string{"aaaa", "bbbb", "cccc"} {
		if got[i].ID != want || got[i].Kind != "topology" || got[i].Bytes != 4 {
			t.Fatalf("List[%d] = %+v, want id %s", i, got[i], want)
		}
	}
	if len(s.List("missing")) != 0 {
		t.Fatal("List of unknown kind non-empty")
	}
}

func TestReopenPreservesEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	ids := []string{"aaaa", "bbbb", "cccc"}
	for i, id := range ids {
		if _, err := s.Put("ensemble", id, []byte(id)); err != nil {
			t.Fatal(err)
		}
		// Ensure distinct mtimes even on coarse filesystem clocks.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, "ensemble", id+".json"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	s2, _ := mustOpen(t, dir, Options{MaxEntries: 2})
	if _, err := s2.Put("ensemble", "dddd", []byte("dddd")); err != nil {
		t.Fatal(err)
	}
	if s2.Has("ensemble", "aaaa") || s2.Has("ensemble", "bbbb") {
		t.Fatal("reopen lost oldest-first eviction order")
	}
	if !s2.Has("ensemble", "cccc") || !s2.Has("ensemble", "dddd") {
		t.Fatal("recent entries evicted after reopen")
	}
}

func TestContentIDStable(t *testing.T) {
	// FNV-1a 64 of "hello" — pins the hash family so store ids stay
	// compatible with the serving tier's fingerprints.
	if got := ContentID([]byte("hello")); got != "a430d84680aabd0b" {
		t.Fatalf("ContentID(hello) = %s, want a430d84680aabd0b", got)
	}
	if got := ContentID(nil); got != "cbf29ce484222325" { // the FNV-1a offset basis
		t.Fatalf("ContentID(nil) = %s", got)
	}
}
