package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The corruption matrix: every way a store can rot must degrade to a
// cold run (an error from GetProfile, with store.fallback charged) and
// never to a wrong profile. The store is an accelerator, not an
// authority.

func storedProfile(t *testing.T) (*Store, Key) {
	t.Helper()
	s := openT(t)
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 7, WarmStart: true}
	if err := s.PutProfile(key, fakeProfile(), []TextImage{{Name: "app", Data: []byte("text-bytes")}}); err != nil {
		t.Fatalf("PutProfile: %v", err)
	}
	return s, key
}

// blobFiles returns every blob path in the store.
func blobFiles(t *testing.T, s *Store) []string {
	t.Helper()
	var files []string
	filepath.Walk(filepath.Join(s.Dir(), "blobs"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		t.Fatalf("store has no blobs")
	}
	return files
}

func wantFallback(t *testing.T, s *Store, key Key) {
	t.Helper()
	prof, err := s.GetProfile(key)
	if err == nil {
		t.Fatalf("corrupt store verified clean (profile=%v)", prof != nil)
	}
	if prof != nil {
		t.Fatalf("corrupt store returned a profile alongside error %v", err)
	}
	if n := s.Counter(CounterFallback); n == 0 {
		t.Fatalf("store.fallback not charged (err=%v)", err)
	}
	if n := s.Counter(CounterGoldenHits); n != 0 {
		t.Fatalf("corrupt load counted as golden hit")
	}
}

// snapBlobPath returns the path of a blob a snapshot segment actually
// references (the .text blob is dedup-only and never fetched on load,
// so corrupting it would not — and should not — trip verification).
func snapBlobPath(t *testing.T, s *Store, key Key) string {
	t.Helper()
	b, err := os.ReadFile(s.manifestPath(key.ID()))
	if err != nil {
		t.Fatal(err)
	}
	var man profileManifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	h, err := ParseHash(man.Snaps[0].Segs[0].Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	return s.blobPath(h)
}

func TestCorruptTruncatedBlob(t *testing.T) {
	s, key := storedProfile(t)
	f := snapBlobPath(t, s, key)
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, key)
}

func TestCorruptFlippedByte(t *testing.T) {
	s, key := storedProfile(t)
	for _, f := range blobFiles(t, s) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantFallback(t, s, key)
}

func TestCorruptMissingBlob(t *testing.T) {
	s, key := storedProfile(t)
	if err := os.Remove(snapBlobPath(t, s, key)); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, key)
}

func TestCorruptManifestJSON(t *testing.T) {
	s, key := storedProfile(t)
	if err := os.WriteFile(s.manifestPath(key.ID()), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, key)
}

func TestCorruptManifestKeyMismatch(t *testing.T) {
	// An index entry renamed onto the wrong key — e.g. a manifest file
	// copied between stores — must fail the echoed-key check even
	// though every blob inside it verifies.
	s, key := storedProfile(t)
	other := Key{Kind: "campaign", Workload: "CG", Seed: 7, WarmStart: true}
	if err := os.Rename(s.manifestPath(key.ID()), s.manifestPath(other.ID())); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, other)
}

func TestCorruptManifestMissingSegEntry(t *testing.T) {
	// A manifest whose segment list references a blob the store never
	// held (the "missing manifest entry" row of the matrix: index and
	// blobs out of sync).
	s, key := storedProfile(t)
	b, err := os.ReadFile(s.manifestPath(key.ID()))
	if err != nil {
		t.Fatal(err)
	}
	var man profileManifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	// Point one segment page at an address with no blob behind it.
	man.Snaps[0].Segs[0].Pages[0] = HashBytes([]byte("never-stored")).String()
	swapped, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.manifestPath(key.ID()), swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, key)
}

func TestConcurrentWritersSameHash(t *testing.T) {
	// Two shard workers racing PutBlob on the same segment hash (and on
	// the same manifest) must both succeed and leave a verifiable store.
	dir := t.TempDir()
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	const writers = 8
	stores := make([]*Store, writers)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		stores[i] = s
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				if _, err := stores[i].PutBlob(data); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	check, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := check.GetBlob(HashBytes(data))
	if err != nil {
		t.Fatalf("blob unreadable after racing writers: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("racing writers corrupted the blob")
	}
	// Accounting must balance: every one of the 128 puts is either a
	// fresh write or a dedup hit, never lost.
	var puts, dedups int64
	for _, s := range stores {
		puts += s.Counter(CounterBlobPuts)
		dedups += s.Counter(CounterBlobDedup)
	}
	if puts+dedups != writers*16 {
		t.Fatalf("puts(%d)+dedups(%d) != %d", puts, dedups, writers*16)
	}
	if puts == 0 {
		t.Fatalf("no writer recorded a fresh put")
	}
}

func TestConcurrentProfileWriters(t *testing.T) {
	// Racing whole-profile stores under one key (shards 1 and 4 sharing
	// a directory) must converge to one loadable entry.
	dir := t.TempDir()
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 11, WarmStart: true}
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := Open(dir)
			if err == nil {
				err = s.PutProfile(key, fakeProfile(), nil)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GetProfile(key)
	if err != nil || got == nil {
		t.Fatalf("GetProfile after racing writers: %v, %v", got, err)
	}
	sameProfile(t, got, fakeProfile())
}

// TestPutBlobRepairsCorruptBlob: a blob file at the right address but
// with the wrong bytes — same size or truncated — is not a dedup hit.
// PutBlob rewrites it and counts a put, so the next load verifies.
func TestPutBlobRepairsCorruptBlob(t *testing.T) {
	for _, tc := range []struct {
		name string
		rot  func([]byte) []byte
	}{
		{"flipped-byte", func(b []byte) []byte { b[3] ^= 0x40; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openT(t)
			data := []byte("segment page bytes")
			h, err := s.PutBlob(data)
			if err != nil {
				t.Fatal(err)
			}
			path := s.blobPath(h)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.rot(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetBlob(h); err == nil {
				t.Fatal("rotted blob verified")
			}
			if _, err := s.PutBlob(data); err != nil {
				t.Fatal(err)
			}
			if n := s.Counter(CounterBlobPuts); n != 2 {
				t.Fatalf("blob-puts = %d, want 2 (the repair is a put)", n)
			}
			if n := s.Counter(CounterBlobDedup); n != 0 {
				t.Fatalf("blob-dedup-hits = %d, want 0 (a rotted blob is no dedup hit)", n)
			}
			got, err := s.GetBlob(h)
			if err != nil || string(got) != string(data) {
				t.Fatalf("repaired blob = %q, %v", got, err)
			}
		})
	}
}

// TestPutProfileRepairsCorruptStore: after every blob rots, storing
// the same profile again rewrites them all, and the entry loads clean.
func TestPutProfileRepairsCorruptStore(t *testing.T) {
	s, key := storedProfile(t)
	for _, path := range blobFiles(t, s) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantFallback(t, s, key)
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.PutProfile(key, fakeProfile(), []TextImage{{Name: "app", Data: []byte("text-bytes")}}); err != nil {
		t.Fatal(err)
	}
	if n := s2.Counter(CounterBytesDeduped); n != 0 {
		t.Fatalf("repopulate deduped %d bytes against rotted blobs", n)
	}
	prof, err := s2.GetProfile(key)
	if err != nil || prof == nil {
		t.Fatalf("repaired entry does not load: %v", err)
	}
}
