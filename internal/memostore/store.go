// Package memostore is the persistent half of the closure memoization
// stack: a content-addressed, size-capped on-disk record store
// layered under the in-memory automata.MemoCache (it implements
// automata.MemoBackend without importing the automata package — payloads
// are opaque bytes).
//
// Records are keyed by the structural fingerprints the cache already uses
// (internal/automata/fingerprint.go), which are stable across processes,
// so a restarted or sibling verifyd process warm-starts every closure the
// store has seen instead of recomputing it.
//
// Durability and integrity:
//
//   - one file per record, named by operation and key
//     ("closure-<a>-<b>.memo"), written to a temp file in the store
//     directory and atomically renamed into place — a crash mid-write
//     leaves at worst an ignored temp file, never a torn record;
//   - every record carries a versioned header with the payload length and
//     an FNV-1a checksum; a read that fails any of those checks evicts
//     the file and reports a miss, so a corrupt record can never reach
//     the cache;
//   - total payload bytes are capped (Options.MaxBytes): the store sweeps
//     least-recently-used records until it fits, keeping long-running
//     services bounded on disk.
//
// The store is safe for concurrent use; all operations serialize on one
// mutex (record granularity is a whole closure — microseconds of
// I/O against milliseconds of construction — so the mutex is nowhere near
// contention).
package memostore

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"muml/internal/obs"
)

// magic identifies a record file and pins the header layout; bumping the
// trailing digit invalidates every existing record.
const magic = "MUMLMST1"

// headerSize is magic + payload length (8 bytes LE) + checksum (8 bytes LE).
const headerSize = len(magic) + 8 + 8

// DefaultMaxBytes caps the store's payload bytes when Options.MaxBytes is
// zero: 256 MiB holds hundreds of thousands of typical closure records.
const DefaultMaxBytes = 256 << 20

// recordSuffix names record files; everything else in the directory is
// ignored (in particular the write-temp files of a crashed process).
const recordSuffix = ".memo"

// Options configure a store.
type Options struct {
	// MaxBytes caps the total payload bytes kept on disk (0 =
	// DefaultMaxBytes, negative = unbounded). When an insert pushes the
	// store over the cap, least-recently-used records are evicted until it
	// fits again.
	MaxBytes int64
	// Journal, when non-nil, receives one store_hit/store_miss event per
	// Load and one store_evict per removed record.
	Journal *obs.Journal
	// Metrics, when non-nil, receives the store.hits, store.misses,
	// store.writes, store.evictions, and store.bytes_written counters plus
	// the store.bytes max-gauge (peak resident payload bytes).
	Metrics *obs.Registry
}

// Store is a content-addressed on-disk record store. Open one per
// directory; concurrent processes may share a directory (atomic renames
// keep records consistent), though each process sweeps against its own
// view of the contents.
type Store struct {
	dir      string
	maxBytes int64
	journal  *obs.Journal

	mHits, mMisses, mWrites, mEvicts, mBytesWritten *obs.Counter
	gBytes                                          *obs.MaxGauge

	mu      sync.Mutex
	entries map[string]*list.Element // record name -> lru element
	lru     *list.List               // front = most recently used
	bytes   int64                    // sum of payload sizes of live entries

	hits, misses, evictions int64
}

// lruEntry is the per-record bookkeeping held in the LRU list.
type lruEntry struct {
	name string
	size int64
}

// Open creates the directory if needed, indexes the records already in it
// (ordered by modification time, so the LRU survives restarts
// approximately), and sweeps to the size cap.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memostore: %w", err)
	}
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		journal:  opts.Journal,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),

		mHits:         opts.Metrics.Counter("store.hits"),
		mMisses:       opts.Metrics.Counter("store.misses"),
		mWrites:       opts.Metrics.Counter("store.writes"),
		mEvicts:       opts.Metrics.Counter("store.evictions"),
		mBytesWritten: opts.Metrics.Counter("store.bytes_written"),
		gBytes:        opts.Metrics.MaxGauge("store.bytes"),
	}
	if err := s.index(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.sweepLocked("")
	s.mu.Unlock()
	return s, nil
}

// index loads the existing records into the LRU, oldest first, so that a
// restarted store evicts what the previous process used least recently.
func (s *Store) index() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("memostore: %w", err)
	}
	type stat struct {
		name  string
		size  int64
		mtime int64
	}
	var stats []stat
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), recordSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted concurrently; skip
		}
		size := info.Size() - int64(headerSize)
		if size < 0 {
			size = 0
		}
		stats = append(stats, stat{name: de.Name(), size: size, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].mtime != stats[j].mtime {
			return stats[i].mtime < stats[j].mtime
		}
		return stats[i].name < stats[j].name
	})
	for _, st := range stats {
		s.entries[st.name] = s.lru.PushFront(&lruEntry{name: st.name, size: st.size})
		s.bytes += st.size
	}
	s.gBytes.Observe(s.bytes)
	return nil
}

// recordName maps a key to its file name. The op string comes from the
// cache ("closure") but is sanitized
// anyway so no key can ever escape the store directory.
func recordName(op string, a, b uint64) string {
	var sb strings.Builder
	for _, r := range op {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return fmt.Sprintf("%s-%016x-%016x%s", sb.String(), a, b, recordSuffix)
}

// Load returns the payload stored under the key, or false. A record that
// fails the header or checksum validation is evicted and reported as a
// miss — never returned.
func (s *Store) Load(op string, a, b uint64) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	name := recordName(op, a, b)
	s.mu.Lock()
	defer s.mu.Unlock()
	elem := s.entries[name]
	if elem == nil {
		s.miss(op, name, a, b)
		return nil, false
	}
	payload, err := readRecord(filepath.Join(s.dir, name))
	if err != nil {
		s.evictLocked(elem, "corrupt")
		s.miss(op, name, a, b)
		return nil, false
	}
	s.lru.MoveToFront(elem)
	s.hits++
	s.mHits.Add(1)
	if s.journal.Enabled() {
		s.journal.Emit(obs.Event{Kind: obs.KindStoreHit, Iter: -1,
			S: map[string]string{"op": op, "key": name},
			N: map[string]int64{"key_a": int64(a), "key_b": int64(b), "bytes": int64(len(payload))},
		})
	}
	return payload, true
}

// miss counts and journals one failed lookup; callers hold s.mu.
func (s *Store) miss(op, name string, a, b uint64) {
	s.misses++
	s.mMisses.Add(1)
	if s.journal.Enabled() {
		s.journal.Emit(obs.Event{Kind: obs.KindStoreMiss, Iter: -1,
			S: map[string]string{"op": op, "key": name},
			N: map[string]int64{"key_a": int64(a), "key_b": int64(b)},
		})
	}
}

// Save persists the payload under the key: the record is written to a
// temp file and renamed into place, then the LRU is swept back under the
// size cap. The first save for a key wins; a failed write leaves the
// store unchanged (persistence is an optimization, never a correctness
// requirement, so errors are absorbed as if the record were evicted).
func (s *Store) Save(op string, a, b uint64, payload []byte) {
	if s == nil {
		return
	}
	name := recordName(op, a, b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[name] != nil {
		return
	}
	if err := writeRecord(s.dir, name, payload); err != nil {
		return
	}
	size := int64(len(payload))
	s.entries[name] = s.lru.PushFront(&lruEntry{name: name, size: size})
	s.bytes += size
	s.mWrites.Add(1)
	s.mBytesWritten.Add(size)
	s.gBytes.Observe(s.bytes)
	s.sweepLocked(name)
}

// sweepLocked evicts least-recently-used records until the store fits the
// size cap, sparing the just-written record (keep), so one oversized
// record cannot evict itself into a write-recompute thrash loop.
func (s *Store) sweepLocked(keep string) {
	if s.maxBytes < 0 {
		return
	}
	for s.bytes > s.maxBytes {
		elem := s.lru.Back()
		if elem == nil {
			return
		}
		if elem.Value.(*lruEntry).name == keep {
			if elem = elem.Prev(); elem == nil {
				return
			}
		}
		s.evictLocked(elem, "size")
	}
}

// evictLocked removes one record from disk and the index; callers hold
// s.mu.
func (s *Store) evictLocked(elem *list.Element, reason string) {
	e := elem.Value.(*lruEntry)
	os.Remove(filepath.Join(s.dir, e.name))
	s.lru.Remove(elem)
	delete(s.entries, e.name)
	s.bytes -= e.size
	s.evictions++
	s.mEvicts.Add(1)
	if s.journal.Enabled() {
		s.journal.Emit(obs.Event{Kind: obs.KindStoreEvict, Iter: -1,
			S: map[string]string{"key": e.name, "reason": reason},
			N: map[string]int64{"bytes": e.size},
		})
	}
}

// Stats returns the lifetime hit/miss/eviction counts of this process and
// the current record count and payload bytes on disk.
func (s *Store) Stats() (hits, misses, evictions int64, entries int, bytes int64) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions, len(s.entries), s.bytes
}

// Dir returns the store directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Close flushes the store. Writes are synchronous and atomic, so this is
// a final capacity sweep plus a handshake point for graceful shutdown;
// the store must not be used afterwards.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked("")
	return nil
}

// writeRecord writes header+payload to a temp file in dir and renames it
// to name, so readers only ever observe complete records.
func writeRecord(dir, name string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[len(magic):], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[len(magic)+8:], checksum(payload))
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// readRecord reads and validates one record file, returning its payload.
func readRecord(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("memostore: %s: bad header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint64(data[len(magic):])
	sum := binary.LittleEndian.Uint64(data[len(magic)+8:])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("memostore: %s: truncated payload (%d of %d bytes)", filepath.Base(path), len(payload), n)
	}
	if checksum(payload) != sum {
		return nil, fmt.Errorf("memostore: %s: checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}

// checksum is FNV-1a over the payload — the same hash family the
// fingerprint keys use, good enough to reject torn or bit-rotted records.
func checksum(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}
