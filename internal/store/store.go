// Package store is the content-addressed persistent object store
// behind the serving tier's write path: uploaded scenario topologies
// and the ensembles generated from them survive worker restarts here.
//
// Objects are grouped into kinds (one directory per kind) and keyed by
// a 16-hex-digit FNV-1a id; for scenario documents the id IS the
// content fingerprint (ContentID of the canonical document bytes), so
// identical uploads land on identical keys and re-uploads are free.
// Each file carries a checksummed envelope and is committed with the
// classic crash-safe sequence — write to a temp file, fsync, rename
// into place, fsync the directory — so a kill -9 at any point leaves
// either the old state or the new state, never a torn entry. Open
// rebuilds the index by scanning the tree, deleting orphaned temp
// files and any entry whose checksum does not match (which can only
// appear through outside interference, not through a crash).
//
// Retention is bounded: when an insert pushes the store past its entry
// or byte budget, the oldest entries (insertion order, rebuilt from
// file modification times on Open) are deleted until it fits. See
// docs/STORAGE.md for the on-disk layout and the serving-tier
// semantics built on top.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"compoundthreat/internal/hash64"
)

// Options tunes a store. The zero value uses the documented defaults.
type Options struct {
	// MaxEntries bounds stored objects across all kinds; the oldest are
	// evicted first. 0 = 4096.
	MaxEntries int
	// MaxBytes bounds total payload bytes across all kinds. 0 = 1 GiB.
	MaxBytes int64
}

func (o Options) defaults() Options {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 30
	}
	return o
}

// Entry describes one stored object.
type Entry struct {
	Kind string
	ID   string
	// Bytes is the payload size (envelope overhead excluded).
	Bytes int64
	// ModTime is when the entry was committed.
	ModTime time.Time
}

// entry is the in-memory index record.
type entry struct {
	Entry
	seq int64 // insertion order; eviction removes the lowest first
}

// Store is a content-addressed object store rooted at one directory.
// It is safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu      chan struct{} // 1-slot semaphore: lock ordering is trivial and profilable
	entries map[string]*entry
	bytes   int64
	seq     int64
}

// envelopeMagic heads every stored file: format name and version.
const envelopeMagic = "threatstore1"

// ContentID fingerprints payload bytes as a 16-hex-digit FNV-1a hash —
// the id under which content-addressed documents are stored.
func ContentID(data []byte) string {
	return fmt.Sprintf("%016x", hash64.Bytes(data))
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// the index from disk: orphaned temp files from interrupted writes are
// deleted, and entries whose envelope fails its checksum are dropped
// and removed. Returns the store and the number of invalid files
// cleaned up.
func Open(dir string, opt Options) (*Store, int, error) {
	opt = opt.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		mu:      make(chan struct{}, 1),
		entries: make(map[string]*entry),
	}
	cleaned := 0
	kinds, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var scanned []*entry
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kind := kd.Name()
		files, err := os.ReadDir(filepath.Join(dir, kind))
		if err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(dir, kind, f.Name())
			if strings.HasSuffix(f.Name(), ".tmp") {
				// An interrupted Put: the rename never happened, so the
				// committed state never referenced this file.
				os.Remove(path)
				cleaned++
				continue
			}
			id, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok {
				continue // not ours; leave it alone
			}
			payload, err := readEnvelope(path)
			if err != nil {
				os.Remove(path)
				cleaned++
				continue
			}
			info, err := f.Info()
			if err != nil {
				return nil, 0, fmt.Errorf("store: %w", err)
			}
			scanned = append(scanned, &entry{Entry: Entry{
				Kind:    kind,
				ID:      id,
				Bytes:   int64(len(payload)),
				ModTime: info.ModTime(),
			}})
		}
	}
	// Insertion order rebuilt from mtimes (name-tiebreak for equal
	// stamps) so retention keeps evicting oldest-first across restarts.
	sort.Slice(scanned, func(i, j int) bool {
		if !scanned[i].ModTime.Equal(scanned[j].ModTime) {
			return scanned[i].ModTime.Before(scanned[j].ModTime)
		}
		return scanned[i].Kind+"/"+scanned[i].ID < scanned[j].Kind+"/"+scanned[j].ID
	})
	for _, e := range scanned {
		s.seq++
		e.seq = s.seq
		s.entries[e.Kind+"/"+e.ID] = e
		s.bytes += e.Bytes
	}
	return s, cleaned, nil
}

func (s *Store) lock()   { s.mu <- struct{}{} }
func (s *Store) unlock() { <-s.mu }

// validName accepts kind and id components: non-empty, path-safe.
func validName(part string) bool {
	if part == "" || len(part) > 128 {
		return false
	}
	for i := 0; i < len(part); i++ {
		c := part[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(kind, id string) string {
	return filepath.Join(s.dir, kind, id+".json")
}

// Put commits one object. It is idempotent on (kind, id): a second Put
// of an existing key reports added=false without touching disk (ids in
// this store are content-derived, so equal keys mean equal content).
// The commit is crash-safe — temp write, fsync, rename, directory
// fsync — and may evict the oldest entries to stay within the
// configured budgets; the freshly written object is never evicted by
// its own Put.
func (s *Store) Put(kind, id string, data []byte) (added bool, err error) {
	if !validName(kind) || !validName(id) {
		return false, fmt.Errorf("store: invalid key %q/%q", kind, id)
	}
	s.lock()
	defer s.unlock()
	key := kind + "/" + id
	if _, ok := s.entries[key]; ok {
		return false, nil
	}
	kdir := filepath.Join(s.dir, kind)
	if err := os.MkdirAll(kdir, 0o755); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(kdir, id+".*.tmp")
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	header := fmt.Sprintf("%s %s %d\n", envelopeMagic, ContentID(data), len(data))
	if _, err := tmp.WriteString(header); err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(kind, id)); err != nil {
		return false, fmt.Errorf("store: commit %s: %w", key, err)
	}
	if err := syncDir(kdir); err != nil {
		return false, fmt.Errorf("store: commit %s: %w", key, err)
	}
	s.seq++
	s.entries[key] = &entry{
		Entry: Entry{Kind: kind, ID: id, Bytes: int64(len(data)), ModTime: time.Now()},
		seq:   s.seq,
	}
	s.bytes += int64(len(data))
	s.gcLocked(key)
	return true, nil
}

// gcLocked evicts oldest-first until the store fits its budgets,
// sparing the key that triggered the sweep.
func (s *Store) gcLocked(spare string) {
	for len(s.entries) > s.opt.MaxEntries || s.bytes > s.opt.MaxBytes {
		var victim *entry
		var victimKey string
		for key, e := range s.entries {
			if key == spare {
				continue
			}
			if victim == nil || e.seq < victim.seq {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			return // only the spared entry remains; nothing evictable
		}
		os.Remove(s.path(victim.Kind, victim.ID))
		delete(s.entries, victimKey)
		s.bytes -= victim.Bytes
	}
}

// Get returns the payload of one object, verifying its envelope
// checksum. A checksum mismatch (outside interference with the file)
// is an error and the entry is dropped.
func (s *Store) Get(kind, id string) ([]byte, error) {
	s.lock()
	defer s.unlock()
	key := kind + "/" + id
	e, ok := s.entries[key]
	if !ok {
		return nil, fmt.Errorf("store: %w: %s", ErrNotFound, key)
	}
	payload, err := readEnvelope(s.path(kind, id))
	if err != nil {
		os.Remove(s.path(kind, id))
		delete(s.entries, key)
		s.bytes -= e.Bytes
		return nil, fmt.Errorf("store: %s: %w", key, err)
	}
	return payload, nil
}

// ErrNotFound reports a missing (kind, id).
var ErrNotFound = errors.New("object not found")

// Has reports whether (kind, id) is stored.
func (s *Store) Has(kind, id string) bool {
	s.lock()
	defer s.unlock()
	_, ok := s.entries[kind+"/"+id]
	return ok
}

// Delete removes one object. Deleting a missing key is a no-op.
func (s *Store) Delete(kind, id string) error {
	s.lock()
	defer s.unlock()
	key := kind + "/" + id
	e, ok := s.entries[key]
	if !ok {
		return nil
	}
	if err := os.Remove(s.path(kind, id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	delete(s.entries, key)
	s.bytes -= e.Bytes
	return nil
}

// List returns the entries of one kind, sorted by id.
func (s *Store) List(kind string) []Entry {
	s.lock()
	defer s.unlock()
	var out []Entry
	for _, e := range s.entries {
		if e.Kind == kind {
			out = append(out, e.Entry)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of stored objects across all kinds.
func (s *Store) Len() int {
	s.lock()
	defer s.unlock()
	return len(s.entries)
}

// Bytes returns the total payload bytes across all kinds.
func (s *Store) Bytes() int64 {
	s.lock()
	defer s.unlock()
	return s.bytes
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// readEnvelope reads one committed file and verifies its header:
// magic, payload checksum, payload length.
func readEnvelope(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head, payload, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, errors.New("truncated envelope")
	}
	fields := strings.Fields(string(head))
	if len(fields) != 3 || fields[0] != envelopeMagic {
		return nil, errors.New("bad envelope header")
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n != len(payload) {
		return nil, errors.New("envelope length mismatch")
	}
	if ContentID(payload) != fields[1] {
		return nil, errors.New("envelope checksum mismatch")
	}
	return payload, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Filesystems that reject directory fsync (some network mounts)
// degrade to rename-only atomicity rather than failing the Put.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync failures are tolerated (some filesystems reject
	// it); the entry then has rename-only atomicity, which still rules
	// out torn files.
	_ = d.Sync()
	return nil
}
