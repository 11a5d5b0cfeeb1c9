// Package store is the persistent content-addressed artifact store
// (ROADMAP item 3): a golden-run profile's distinct frozen
// copy-on-write snapshot pages and sealed .text pages are concatenated
// into one pack, stored as a blob under its SHA-256, the rest of the
// profile becomes a keyed manifest naming the pack and the page bounds
// inside it, and campaign traces seal under a Merkle root with one leaf
// per trial — the "triangle" of blobs, manifests, and the keyed index.
//
// The store is an accelerator, never an authority: every blob is
// verified against its hash on load, and any mismatch, truncation, or
// missing entry degrades to a cold golden run (the caller re-derives
// everything from the deterministic substrate) with a store.fallback
// counter charged. A corrupt store can cost time; it cannot change a
// result. Store accounting therefore lives in the store's own
// trace.Recorder, reported on stderr by the CLIs — it is deliberately
// NOT merged into campaign traces, so store-on, store-off, cold, and
// cache-hit runs export byte-identical scrubbed campaign JSONL.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"care/internal/trace"
)

// Hash is a SHA-256 content address.
type Hash [sha256.Size]byte

// HashBytes addresses a byte image.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// String renders the address as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Key identifies one cached golden-run entry: the exact campaign
// configuration whose profile (and snapshots) the entry reproduces. Two
// runs with equal Keys are guaranteed identical by the substrate's
// determinism, which is what makes the cache sound.
type Key struct {
	// Kind separates the index spaces ("campaign" or "coverage").
	Kind string `json:"kind"`
	// Workload is the registered workload name.
	Workload string `json:"workload"`
	// Params is the canonical JSON of the workload build parameters.
	Params string `json:"params"`
	// OptLevel and Defenses are the build options.
	OptLevel int      `json:"opt_level"`
	Defenses []string `json:"defenses,omitempty"`
	// Seed drives the campaign's randomness. The golden run itself does
	// not depend on it, but keying on it keeps one entry per campaign,
	// which is what the trace index is organised by.
	Seed int64 `json:"seed"`
	// SnapEvery and WarmStart pin the snapshot cadence: a warm entry
	// carries snapshots a cold one does not.
	SnapEvery uint64 `json:"snap_every,omitempty"`
	WarmStart bool   `json:"warm_start,omitempty"`
}

// ID is the key's index address: the SHA-256 of its canonical JSON.
func (k Key) ID() string {
	b, err := json.Marshal(k)
	if err != nil {
		// Key is a plain value struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("store: marshal key: %v", err))
	}
	return HashBytes(b).String()
}

// Store trace counters, charged on the store's private recorder (see
// the package comment for why they never enter campaign traces).
const (
	// CounterGoldenHits / CounterGoldenMisses count profile-cache
	// lookups: a hit skips the golden run (and the warm-start snapshot
	// pass) entirely.
	CounterGoldenHits   = "store.golden-hits"
	CounterGoldenMisses = "store.golden-misses"
	// CounterFallback counts corrupt or unverifiable entries that
	// degraded to a cold path (hash mismatch, truncated blob, missing
	// manifest segment, unreadable index).
	CounterFallback = "store.fallback"
	// CounterBlobPuts / CounterBytesWritten account for new (or
	// repaired) blobs; CounterBlobDedup / CounterBytesDeduped for writes
	// the store already held intact and for pages a profile's pack
	// already held (the dedup win).
	CounterBlobPuts     = "store.blob-puts"
	CounterBytesWritten = "store.bytes-written"
	CounterBlobDedup    = "store.blob-dedup-hits"
	CounterBytesDeduped = "store.bytes-deduped"
	// CounterBlobGets / CounterBytesRead account for verified loads.
	CounterBlobGets  = "store.blob-gets"
	CounterBytesRead = "store.bytes-read"
	// CounterTraceSeals counts campaign traces sealed into the store.
	CounterTraceSeals = "store.trace-seals"
)

// Store is a content-addressed artifact store rooted at a directory:
//
//	<dir>/blobs/<hh>/<hash>    content-addressed payloads: one pack of
//	                           memory and .text pages per profile
//	<dir>/manifests/<id>.v5    golden-run profile manifests, by Key.ID
//	                           (checksummed flat binary, see manifestExt)
//	<dir>/traces/<id>.jsonl    sealed campaign trace exports
//	<dir>/seals/<id>.json      Merkle seals over the trace exports
//
// Methods are safe for concurrent use by one process, and writes are
// atomic (temp file + rename), so independent processes — e.g. shard
// workers racing on the same pack — can share one directory.
type Store struct {
	dir string
	mu  sync.Mutex
	rec *trace.Recorder
}

// Open roots a store at dir, creating the layout if needed.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"blobs", "manifests", "traces", "seals"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir, rec: trace.New(1)}, nil
}

// Dir returns the store's root directory (shard workers open it to
// load the campaign's golden profile themselves).
func (s *Store) Dir() string { return s.dir }

// add charges a store counter under the lock.
func (s *Store) add(name string, v int64) {
	s.mu.Lock()
	s.rec.Add(name, v)
	s.mu.Unlock()
}

// Counter reads one store counter.
func (s *Store) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.Counter(name)
}

// StatsLine renders the accounting summary the CLIs print on stderr —
// stderr, so stdout and the exported campaign JSONL stay byte-diffable
// against store-off runs (the same contract warm-start accounting
// follows).
func (s *Store) StatsLine() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("store.golden-hits=%d store.golden-misses=%d store.bytes-deduped=%d store.bytes-written=%d store.fallback=%d",
		s.rec.Counter(CounterGoldenHits), s.rec.Counter(CounterGoldenMisses),
		s.rec.Counter(CounterBytesDeduped), s.rec.Counter(CounterBytesWritten),
		s.rec.Counter(CounterFallback))
}

// blobPath maps a hash to its file, fanned out on the first byte so no
// directory grows unboundedly.
func (s *Store) blobPath(h Hash) string {
	hx := h.String()
	return filepath.Join(s.dir, "blobs", hx[:2], hx)
}

// PutBlob stores a byte image under its content address. If the store
// already holds the blob intact the write is skipped and counted as
// dedup — the common case once a pack has been written by any prior
// run, campaign, or shard worker. A file at the address that does not
// hold exactly these bytes (a corrupted or truncated blob) is rewritten
// and counted as a put, so a fallback run's repopulate repairs the
// store instead of leaving it broken for good. Comparing against data
// is the same check as re-hashing the file, because data hashes to the
// address. Concurrent writers racing on one hash are safe: each writes
// a private temp file and the atomic rename makes the last one win
// with identical content.
func (s *Store) PutBlob(data []byte) (Hash, error) {
	h := HashBytes(data)
	return h, s.putBlob(h, data)
}

// putBlob is PutBlob with the address already computed.
func (s *Store) putBlob(h Hash, data []byte) error {
	path := s.blobPath(h)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		s.dedup(len(data))
		return nil
	}
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("store: put blob %s: %w", h, err)
	}
	s.add(CounterBlobPuts, 1)
	s.add(CounterBytesWritten, int64(len(data)))
	return nil
}

// dedup charges one blob write the store already held.
func (s *Store) dedup(n int) {
	s.add(CounterBlobDedup, 1)
	s.add(CounterBytesDeduped, int64(n))
}

// GetBlob loads and verifies a blob. A missing file, short read, or
// hash mismatch is an error — the caller degrades to its cold path and
// the store stays an accelerator, never an authority.
func (s *Store) GetBlob(h Hash) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(h))
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", h, err)
	}
	if HashBytes(data) != h {
		return nil, fmt.Errorf("store: blob %s fails verification (corrupt store?)", h)
	}
	s.add(CounterBlobGets, 1)
	s.add(CounterBytesRead, int64(len(data)))
	return data, nil
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so readers (and racing writers, possibly in other processes)
// never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
