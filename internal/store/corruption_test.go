package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The corruption matrix: every way a store can rot must degrade to a
// cold run (an error from GetProfile, with store.fallback charged) and
// never to a wrong profile. The store is an accelerator, not an
// authority.

func storedProfile(t testing.TB) (*Store, Key) {
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

// readManifest decodes the manifest stored under key.
func readManifest(t testing.TB, s *Store, key Key) *profileManifest {
	t.Helper()
	b, err := os.ReadFile(s.manifestPath(key.ID()))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// rewriteManifest applies rot to the manifest stored under key and
// stores the result with a valid checksum, so that only the rot itself
// can fail the next load.
func rewriteManifest(t *testing.T, s *Store, key Key, rot func(*profileManifest)) {
	t.Helper()
	man := readManifest(t, s, key)
	rot(man)
	writePayload(t, s, key, appendManifest(nil, man))
}

// writePayload stores payload as the manifest under key, behind its
// valid checksum.
func writePayload(t *testing.T, s *Store, key Key, payload []byte) {
	t.Helper()
	sum := HashBytes(payload)
	if err := os.WriteFile(s.manifestPath(key.ID()), append(sum[:], payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// packPath returns the path of the pack the manifest under key names.
func packPath(t *testing.T, s *Store, key Key) string {
	t.Helper()
	return s.blobPath(readManifest(t, s, key).Pack)
}

// rotFile rewrites the file at path with rot applied to its bytes.
func rotFile(t *testing.T, path string, rot func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rot(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTruncatedBlob(t *testing.T) {
	s, key := storedProfile(t)
	rotFile(t, packPath(t, s, key), func(b []byte) []byte { return b[:len(b)/2] })
	wantFallback(t, s, key)
}

func TestCorruptFlippedByte(t *testing.T) {
	s, key := storedProfile(t)
	rotFile(t, packPath(t, s, key), func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	wantFallback(t, s, key)
}

func TestCorruptMissingBlob(t *testing.T) {
	s, key := storedProfile(t)
	if err := os.Remove(packPath(t, s, key)); err != nil {
		t.Fatal(err)
	}
	wantFallback(t, s, key)
}

// TestCorruptManifestFile: a manifest file that rotted on disk, in its
// checksum or its payload, or that was cut short or replaced, fails the
// checksum before any of its payload is decoded.
func TestCorruptManifestFile(t *testing.T) {
	for _, tc := range []struct {
		name, wantErr string
		rot           func([]byte) []byte
	}{
		{"garbage", "checksum", func([]byte) []byte { return bytes.Repeat([]byte("{not a manifest}"), 64) }},
		{"checksum-byte", "checksum", func(b []byte) []byte { b[7] ^= 0x10; return b }},
		{"payload-byte", "checksum", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"empty", "truncated", func([]byte) []byte { return nil }},
		{"truncated-in-checksum", "truncated", func(b []byte) []byte { return b[:len(Hash{})/2] }},
		{"truncated-in-payload", "checksum", func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, key := storedProfile(t)
			path := s.manifestPath(key.ID())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.rot(b), 0o644); err != nil {
				t.Fatal(err)
			}
			wantFallback(t, s, key)
			if _, err := s.GetProfile(key); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestCorruptManifestPayloadRot: rot inside the payload with the
// checksum recomputed over it gets past the checksum to the payload
// decoder and the checks behind it. Every such load must end in an error or a
// profile, never a panic.
func TestCorruptManifestPayloadRot(t *testing.T) {
	s, key := storedProfile(t)
	path := s.manifestPath(key.ID())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := b[len(Hash{}):]
	const offsets = 48
	loaded, loads := 0, 0
	for k := range offsets {
		off := k * len(payload) / offsets
		for _, x := range []byte{0x01, 0x80, 0xff} {
			rotted := bytes.Clone(payload)
			rotted[off] ^= x
			writePayload(t, s, key, rotted)
			prof, err := s.GetProfile(key)
			if (prof == nil) == (err == nil) {
				t.Fatalf("payload byte %d ^ %#x: profile=%v err=%v, want exactly one of them", off, x, prof != nil, err)
			}
			if prof != nil {
				loaded++
			}
			loads++
		}
	}
	t.Logf("%d of %d rotted payloads decoded to a profile", loaded, loads)
}

// TestCorruptManifestPayloadFraming: a payload whose checksum holds but
// whose framing does not is refused by the decoder: a list length that
// runs past the payload (the key's name list claiming 2^40 names, or
// the last lists of a payload cut short) and bytes left over after the
// last snapshot.
func TestCorruptManifestPayloadFraming(t *testing.T) {
	for _, tc := range []struct {
		name, wantErr string
		rot           func([]byte) []byte
	}{
		{"length-past-end", "runs past", func(p []byte) []byte {
			return append(binary.AppendUvarint(nil, 1<<40), p[1:]...)
		}},
		{"cut-short", "runs past", func(p []byte) []byte { return p[:len(p)-len(p)/3] }},
		{"trailing-bytes", "past its end", func(p []byte) []byte { return append(p, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, key := storedProfile(t)
			b, err := os.ReadFile(s.manifestPath(key.ID()))
			if err != nil {
				t.Fatal(err)
			}
			writePayload(t, s, key, tc.rot(bytes.Clone(b[len(Hash{}):])))
			wantFallback(t, s, key)
			if _, err := s.GetProfile(key); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
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
	// A manifest that names a pack the store never held (the "missing
	// manifest entry" row of the matrix: index and blobs out of sync).
	s, key := storedProfile(t)
	rewriteManifest(t, s, key, func(m *profileManifest) {
		m.Pack = HashBytes([]byte("never-stored"))
	})
	wantFallback(t, s, key)
}

// TestCorruptManifestPageTable: a page table that does not fit its
// segment — an index past the pack's page table, the wrong page count,
// a page of the wrong length for its slot, or a base the machine cannot
// map — is corruption, not a profile with a malformed segment. So are
// page bounds that do not slice the verified pack into whole pages: not
// starting at 0, not strictly ascending, or not ending at its length.
// fakeProfile's pack is the text page, then six snapshot pages.
func TestCorruptManifestPageTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		rot  func(*profileManifest)
	}{
		{"index-past-table", func(m *profileManifest) { m.Snaps[0].Segs[0].Pages[0] = len(m.Bounds) - 1 }},
		{"negative-index", func(m *profileManifest) { m.Snaps[0].Segs[0].Pages[0] = -2 }},
		{"page-count", func(m *profileManifest) { m.Snaps[1].Segs[2].Pages = m.Snaps[1].Segs[2].Pages[:2] }},
		{"blob-length", func(m *profileManifest) { m.Snaps[0].Segs[2].Pages[1] = m.Snaps[0].Segs[0].Pages[0] }},
		{"misaligned-base", func(m *profileManifest) { m.Snaps[1].Segs[2].Base += 4 }},
		{"bounds-missing", func(m *profileManifest) { m.Bounds = nil }},
		{"bounds-start", func(m *profileManifest) { m.Bounds[0] = 1 }},
		{"bounds-negative-start", func(m *profileManifest) { m.Bounds[0] = -1 }},
		{"bounds-repeated", func(m *profileManifest) { m.Bounds[2] = m.Bounds[1] }},
		{"bounds-descending", func(m *profileManifest) { m.Bounds[1], m.Bounds[2] = m.Bounds[2], m.Bounds[1] }},
		{"bounds-short-end", func(m *profileManifest) { m.Bounds[len(m.Bounds)-1]-- }},
		{"bounds-past-end", func(m *profileManifest) { m.Bounds[len(m.Bounds)-1]++ }},
		{"bounds-dropped-page", func(m *profileManifest) { m.Bounds = m.Bounds[:len(m.Bounds)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, key := storedProfile(t)
			rewriteManifest(t, s, key, tc.rot)
			wantFallback(t, s, key)
		})
	}
}

// TestCorruptManifestSnapshots: a snapshot list or count table that
// breaks what trials rely on is corruption, one row per rule of
// profileManifest.check. Each row breaks that rule alone: fakeProfile's
// images are "app" and "lib", its snapshots sit at dyn 100 (before lib
// first runs, so lib's entry is empty) and 200 (= TotalDyn), and the
// last of app's three instructions never runs.
func TestCorruptManifestSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name string
		rot  func(*profileManifest)
	}{
		{"image-order", func(m *profileManifest) { m.Images[0], m.Images[1] = m.Images[1], m.Images[0] }},
		{"counts-list", func(m *profileManifest) { m.Counts = append(m.Counts, nil) }},
		{"counts-sum", func(m *profileManifest) { m.Counts[0][2]++ }},
		{"snap-order", func(m *profileManifest) { m.Snaps[0], m.Snaps[1] = m.Snaps[1], m.Snaps[0] }},
		{"snap-repeated", func(m *profileManifest) { m.Snaps[1] = m.Snaps[0] }},
		{"snap-past-total", func(m *profileManifest) { m.Snaps[1].Dyn++; m.Snaps[1].Counts[0][0]++ }},
		{"snap-counts-list", func(m *profileManifest) { m.Snaps[0].Counts = m.Snaps[0].Counts[:1] }},
		{"snap-counts-length", func(m *profileManifest) { c := m.Snaps[0].Counts; c[0] = c[0][:len(c[0])-1] }},
		{"snap-counts-sum", func(m *profileManifest) { m.Snaps[1].Counts[1] = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, key := storedProfile(t)
			rewriteManifest(t, s, key, tc.rot)
			wantFallback(t, s, key)
		})
	}
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
