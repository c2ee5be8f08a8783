package exp

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/exp/fsio"
	"repro/internal/metrics"
	"repro/pkg/api"
)

// Fixed counter IDs for store statistics, in the slot order passed to
// metrics.NewSet in NewStore.
const (
	storeHits metrics.CounterID = iota
	storeMisses
	storeStores
	storeCorrupt
	storeErrors
)

// storeMagic tags every entry file's header line so an unrelated file
// dropped into the data dir is never mistaken for a report.
const storeMagic = "impactstore1"

// Store is the durable half of the result cache: a directory of
// content-addressed report blobs, one file per run key, fanned out over
// 256 two-hex-digit subdirectories so no single directory grows huge.
// Because the simulator is deterministic, a key maps to exactly one
// possible value, so entries are written once and are valid forever — a
// restarted server answers previously computed sweeps without
// re-simulating.
//
// Every entry file is "impactstore1 <payload-bytes> <hex sha256>\n"
// followed by the report bytes; writes go through a temp file in the
// final directory, an atomic rename, and a directory fsync (so a
// published entry survives power loss, not just process death), and
// reads verify the length and checksum, silently discarding corrupt or
// truncated entries (the next Put rewrites them clean). The store is
// best-effort by design: any I/O failure degrades to a cache miss, never
// to a wrong answer.
//
// Safe for concurrent use; all counters land in lock-free metrics.Set
// slots exported on /v1/metrics.
type Store struct {
	dir string
	met *metrics.Set
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := fsio.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("exp: store: %v", err)
	}
	return &Store{
		dir: dir,
		met: metrics.NewSet("hits", "misses", "stores", "corrupt_dropped", "errors"),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validStoreKey reports whether key is a lowercase hex SHA-256 digest —
// the only names the store ever writes, and a guarantee that a key can
// never traverse outside the data dir.
func validStoreKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// entryPath maps a key to its file: <dir>/<first two hex digits>/<key>.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the stored report bytes for a key. Corrupt or truncated
// entries are deleted and reported as misses, so a damaged file heals on
// the next Put instead of poisoning every later read. The context is
// part of the ResultStore contract; a purely local store has no remote
// hops to bound with it.
func (s *Store) Get(_ context.Context, key string) (json.RawMessage, bool) {
	if !validStoreKey(key) {
		s.met.Add(storeMisses, 1)
		return nil, false
	}
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		s.met.Add(storeMisses, 1)
		return nil, false
	}
	if err != nil {
		s.met.Add(storeErrors, 1)
		s.met.Add(storeMisses, 1)
		return nil, false
	}
	blob, ok := fsio.DecodeRecord(storeMagic, data)
	if !ok {
		// Dropping a corrupt entry is a durability decision just like
		// publishing one: without the parent-directory fsync, a crash after
		// the unlink could resurrect the corrupt file this reader already
		// refused, re-poisoning reads that the next Put was supposed to heal.
		if err := os.Remove(path); err != nil {
			s.met.Add(storeErrors, 1)
		} else if err := fsio.SyncDir(filepath.Dir(path)); err != nil {
			s.met.Add(storeErrors, 1)
		}
		s.met.Add(storeCorrupt, 1)
		s.met.Add(storeMisses, 1)
		return nil, false
	}
	s.met.Add(storeHits, 1)
	return blob, true
}

// Put persists report bytes under a key. First write wins (a deterministic
// simulator makes any second write byte-identical anyway), and the
// tmp+rename dance means readers only ever see complete entries — a crash
// mid-write leaves at worst a stray temp file, never a torn entry.
func (s *Store) Put(_ context.Context, key string, blob json.RawMessage) {
	if !validStoreKey(key) {
		s.met.Add(storeErrors, 1)
		return
	}
	path := s.entryPath(key)
	if _, err := os.Stat(path); err == nil {
		return
	}
	if err := s.write(path, blob); err != nil {
		s.met.Add(storeErrors, 1)
		return
	}
	s.met.Add(storeStores, 1)
}

// write creates the entry file atomically in the key's fan-out directory.
func (s *Store) write(path string, blob json.RawMessage) error {
	if err := fsio.Failpoint("store.write"); err != nil {
		return err
	}
	if err := fsio.EnsureDir(filepath.Dir(path)); err != nil {
		return err
	}
	return fsio.AtomicWrite(path, fsio.EncodeRecord(storeMagic, blob))
}

// StoreStats is a point-in-time copy of the store counters, served on
// /v1/metrics. The wire shape lives in pkg/api with the rest of the v1
// contract.
type StoreStats = api.StoreStats

// Stats snapshots all counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:           s.met.Value(storeHits),
		Misses:         s.met.Value(storeMisses),
		Stores:         s.met.Value(storeStores),
		CorruptDropped: s.met.Value(storeCorrupt),
		Errors:         s.met.Value(storeErrors),
	}
}
