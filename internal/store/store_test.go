package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"care/internal/checkpoint"
	"care/internal/machine"
	"care/internal/profiler"
)

func openT(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestBlobRoundTripAndDedup(t *testing.T) {
	s := openT(t)
	data := []byte("the quick brown fault")
	h, err := s.PutBlob(data)
	if err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	if h != HashBytes(data) {
		t.Fatalf("PutBlob returned wrong hash")
	}
	got, err := s.GetBlob(h)
	if err != nil {
		t.Fatalf("GetBlob: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("GetBlob = %q, want %q", got, data)
	}
	// Second put of identical content is a dedup hit, not a write.
	if _, err := s.PutBlob(data); err != nil {
		t.Fatalf("PutBlob again: %v", err)
	}
	if n := s.Counter(CounterBlobPuts); n != 1 {
		t.Fatalf("blob-puts = %d, want 1", n)
	}
	if n := s.Counter(CounterBlobDedup); n != 1 {
		t.Fatalf("blob-dedup-hits = %d, want 1", n)
	}
	if n := s.Counter(CounterBytesDeduped); n != int64(len(data)) {
		t.Fatalf("bytes-deduped = %d, want %d", n, len(data))
	}
	if n := s.Counter(CounterBytesRead); n != int64(len(data)) {
		t.Fatalf("bytes-read = %d, want %d", n, len(data))
	}
}

func TestKeyIDDistinguishesFields(t *testing.T) {
	base := Key{Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9, WarmStart: true}
	ids := map[string]string{base.ID(): "base"}
	for name, k := range map[string]Key{
		"seed":     {Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 10, WarmStart: true},
		"workload": {Kind: "campaign", Workload: "CG", Params: `{"n":16}`, Seed: 9, WarmStart: true},
		"defense":  {Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9, WarmStart: true, Defenses: []string{"care"}},
		"cold":     {Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9},
		"opt":      {Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9, WarmStart: true, OptLevel: 2},
		"kind":     {Kind: "coverage", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9, WarmStart: true},
	} {
		if prev, dup := ids[k.ID()]; dup {
			t.Fatalf("key variant %q collides with %q", name, prev)
		}
		ids[k.ID()] = name
	}
	if base.ID() != (Key{Kind: "campaign", Workload: "HPCCG", Params: `{"n":16}`, Seed: 9, WarmStart: true}).ID() {
		t.Fatalf("equal keys produced different IDs")
	}
}

// pagesOf slices a byte image into machine pages, the shape
// machine.Memory.Snapshot hands the store.
func pagesOf(b []byte) [][]byte {
	var pages [][]byte
	for off := 0; off < len(b); off += machine.PageSize {
		pages = append(pages, b[off:min(off+machine.PageSize, len(b))])
	}
	return pages
}

// segBytes reassembles a segment image, a nil page reading as zeros.
func segBytes(s machine.SegSnapshot) []byte {
	out := make([]byte, 0, s.Size)
	for i, p := range s.Pages {
		if p == nil {
			p = make([]byte, min(machine.PageSize, s.Size-i*machine.PageSize))
		}
		out = append(out, p...)
	}
	return out
}

// fakeProfile builds a two-snapshot profile shaped like frozen
// page-granular capture: both snapshots alias one globals page and the
// middle page of a three-page stack, the stack's first page was never
// written (nil, the zero page), and each snapshot has private heap and
// stack-top pages. Its counts are a golden run's whose library image
// first runs between the snapshots, so the first snapshot has no count
// vector for it, and whose cadence divides TotalDyn, so the second
// snapshot sits at the last retirement (exit retires nothing). The float
// streams and registers hold -0, infinities and a NaN with a
// non-default payload, which only a bit-exact encoding keeps.
func fakeProfile() *profiler.Profile {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0xfff8_0000_0000_beef)
	shared := []byte("shared-cow-segment-bytes")
	stackMid := make([]byte, machine.PageSize)
	copy(stackMid, "frame-bytes-nobody-rewrote")
	mkSnap := func(dyn uint64, dirty, top string, counts map[string][]uint64) profiler.SnapPoint {
		stackTop := make([]byte, 256)
		copy(stackTop[200:], top)
		st := &checkpoint.Snapshot{
			Mem: &machine.Snapshot{
				HeapNext: 0x9000,
				Segs: []machine.SegSnapshot{
					{Base: 0x1000, Name: "app.data", Size: len(shared), Pages: pagesOf(shared), Domain: 1},
					{Base: 0x2000, Name: "heap", Size: len(dirty), Pages: pagesOf([]byte(dirty)), Domain: 2},
					{Base: 0x10000, Name: "stack", Size: 2*machine.PageSize + 256, Pages: [][]byte{nil, stackMid, stackTop}, Domain: 5},
				},
			},
			Step:       int(dyn / 100),
			EnvResults: []float64{1.5, nan, negZero},
			EnvPrinted: []string{"iter"},
		}
		st.CPU.PC = machine.Word(0x40 + dyn)
		st.CPU.Dyn = dyn
		st.CPU.R[3] = 77
		st.CPU.F[0] = negZero
		st.CPU.F[1] = nan
		st.CPU.F[2] = math.Inf(1)
		return profiler.SnapPoint{Dyn: dyn, State: st, Counts: counts}
	}
	return &profiler.Profile{
		TotalDyn: 200,
		Counts:   map[string][]uint64{"app": {150, 40, 0}, "lib": {10}},
		Golden:   []float64{3.25, nan, math.Inf(-1), negZero},
		ExitCode: 0,
		Snaps: []profiler.SnapPoint{
			mkSnap(100, "snap1-private", "ret-1", map[string][]uint64{"app": {98, 2, 0}}),
			mkSnap(200, "snap2-private-longer", "ret-2", map[string][]uint64{"app": {150, 40, 0}, "lib": {10}}),
		},
	}
}

// bitsOf returns the IEEE-754 bit pattern of every element.
func bitsOf(fs []float64) []uint64 {
	bs := make([]uint64, len(fs))
	for i, f := range fs {
		bs[i] = math.Float64bits(f)
	}
	return bs
}

// sameProfile requires got to equal want in every field, bit for bit:
// floats compare by their IEEE-754 bits, and a never-written page must
// come back as the zero page (nil).
func sameProfile(t *testing.T, got, want *profiler.Profile) {
	t.Helper()
	sameCounts := func(g, w map[string][]uint64) bool { return maps.EqualFunc(g, w, slices.Equal[[]uint64]) }
	if got.TotalDyn != want.TotalDyn || got.ExitCode != want.ExitCode {
		t.Fatalf("profile header mismatch: %+v vs %+v", got, want)
	}
	if !slices.Equal(bitsOf(got.Golden), bitsOf(want.Golden)) {
		t.Fatalf("golden = %v, want %v bit for bit", got.Golden, want.Golden)
	}
	if !sameCounts(got.Counts, want.Counts) {
		t.Fatalf("counts = %v, want %v", got.Counts, want.Counts)
	}
	if len(got.Snaps) != len(want.Snaps) {
		t.Fatalf("snaps = %d, want %d", len(got.Snaps), len(want.Snaps))
	}
	for i := range got.Snaps {
		g, w := got.Snaps[i].State, want.Snaps[i].State
		if got.Snaps[i].Dyn != want.Snaps[i].Dyn || g.Step != w.Step || g.CPU.R != w.CPU.R || g.CPU.PC != w.CPU.PC || g.CPU.Dyn != w.CPU.Dyn {
			t.Fatalf("snap %d header mismatch", i)
		}
		if !slices.Equal(bitsOf(g.CPU.F[:]), bitsOf(w.CPU.F[:])) {
			t.Fatalf("snap %d float registers = %v, want %v bit for bit", i, g.CPU.F, w.CPU.F)
		}
		if !slices.Equal(bitsOf(g.EnvResults), bitsOf(w.EnvResults)) || !slices.Equal(g.EnvPrinted, w.EnvPrinted) {
			t.Fatalf("snap %d environment streams mismatch", i)
		}
		if !sameCounts(got.Snaps[i].Counts, want.Snaps[i].Counts) {
			t.Fatalf("snap %d counts = %v, want %v", i, got.Snaps[i].Counts, want.Snaps[i].Counts)
		}
		if g.Mem.HeapNext != w.Mem.HeapNext {
			t.Fatalf("snap %d heap mismatch", i)
		}
		if len(g.Mem.Segs) != len(w.Mem.Segs) {
			t.Fatalf("snap %d segs = %d, want %d", i, len(g.Mem.Segs), len(w.Mem.Segs))
		}
		for j := range g.Mem.Segs {
			gs, ws := g.Mem.Segs[j], w.Mem.Segs[j]
			if gs.Base != ws.Base || gs.Name != ws.Name || gs.Domain != ws.Domain || gs.Size != ws.Size ||
				len(gs.Pages) != len(ws.Pages) {
				t.Fatalf("snap %d seg %d mismatch", i, j)
			}
			for k := range gs.Pages {
				if (gs.Pages[k] == nil) != (ws.Pages[k] == nil) || !bytes.Equal(gs.Pages[k], ws.Pages[k]) {
					t.Fatalf("snap %d seg %s page %d mismatch", i, gs.Name, k)
				}
			}
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	s := openT(t)
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 1, WarmStart: true}
	prof := fakeProfile()
	text := []TextImage{{Name: "app", Data: []byte("packed-text-image")}}
	if err := s.PutProfile(key, prof, text); err != nil {
		t.Fatalf("PutProfile: %v", err)
	}
	// Every distinct non-zero page is packed once: the aliased globals
	// and stack-middle pages (recognised by backing-array identity, not
	// even charged as dedup hits), two heap and two stack-top pages, and
	// the text page. The never-written stack page stores nothing. The
	// pack is the one blob the profile writes.
	if n := s.Counter(CounterBlobPuts); n != 1 {
		t.Fatalf("blob-puts = %d, want 1", n)
	}
	if n := s.Counter(CounterBlobDedup); n != 0 {
		t.Fatalf("blob-dedup-hits = %d, want 0", n)
	}
	if n, want := s.Counter(CounterBytesWritten), int64(len("packed-text-image")+len("shared-cow-segment-bytes")+
		len("snap1-private")+len("snap2-private-longer")+machine.PageSize+2*256); n != want {
		t.Fatalf("bytes-written = %d, want %d (seven pages)", n, want)
	}
	got, err := s.GetProfile(key)
	if err != nil {
		t.Fatalf("GetProfile: %v", err)
	}
	if got == nil {
		t.Fatalf("GetProfile returned a miss for a stored key")
	}
	sameProfile(t, got, prof)
	// Cross-snapshot sharing must survive the round trip: both
	// snapshots' shared pages alias one page of the verified pack each,
	// and the zero page comes back as the zero page.
	s0, s1 := got.Snaps[0].State.Mem.Segs, got.Snaps[1].State.Mem.Segs
	for _, at := range []struct{ seg, page int }{{0, 0}, {2, 1}} {
		a, b := s0[at.seg].Pages[at.page], s1[at.seg].Pages[at.page]
		if len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("shared page %d of %s was duplicated on load", at.page, s0[at.seg].Name)
		}
	}
	if s0[2].Pages[0] != nil || s1[2].Pages[0] != nil {
		t.Fatal("never-written page did not come back as the zero page")
	}
	if a, b := s0[2].Pages[2], s1[2].Pages[2]; &a[0] == &b[0] {
		t.Fatal("distinct stack-top pages were merged on load")
	}
	if n := s.Counter(CounterGoldenHits); n != 1 {
		t.Fatalf("golden-hits = %d, want 1", n)
	}
	// A second identical store of the profile is pure dedup: the same
	// pack again.
	if err := s.PutProfile(key, prof, text); err != nil {
		t.Fatalf("PutProfile again: %v", err)
	}
	if n := s.Counter(CounterBlobPuts); n != 1 {
		t.Fatalf("blob-puts after re-put = %d, want 1", n)
	}
	if n := s.Counter(CounterBlobDedup); n != 1 {
		t.Fatalf("blob-dedup-hits after re-put = %d, want 1", n)
	}
}

// TestProfileHitReadsOnePack: a hit reads one blob, the pack, whole:
// one verified get whose bytes are every blob byte the store holds.
// The same profile stored under another seed shares that pack.
func TestProfileHitReadsOnePack(t *testing.T) {
	s, key := storedProfile(t)
	other := key
	other.Seed++
	if err := s.PutProfile(other, fakeProfile(), []TextImage{{Name: "app", Data: []byte("text-bytes")}}); err != nil {
		t.Fatal(err)
	}
	files := blobFiles(t, s)
	if len(files) != 1 {
		t.Fatalf("two seeds of one profile stored %d blobs, want 1 (the pack)", len(files))
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if prof, err := hit.GetProfile(key); err != nil || prof == nil {
		t.Fatalf("GetProfile: %v, %v", prof != nil, err)
	}
	if n := hit.Counter(CounterBlobGets); n != 1 {
		t.Fatalf("blob-gets = %d, want 1", n)
	}
	if n := hit.Counter(CounterBytesRead); n != fi.Size() {
		t.Fatalf("bytes-read = %d, want the pack's %d", n, fi.Size())
	}
}

// TestOtherFormatManifestIsAMiss: a manifest where earlier stores
// wrote theirs (JSON, format 2, at manifests/<id>.json, checksummed gob
// at manifests/<id>.v4, and the flat layout with the key's snapshot
// cadence at manifests/<id>.v5) is no entry of this format: the lookup
// is a clean miss, not corruption, the inventory skips it, and storing
// the profile again adds an entry that loads.
func TestOtherFormatManifestIsAMiss(t *testing.T) {
	s := openT(t)
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 3, WarmStart: true}
	plantV5(t, s, key, fakeProfile())
	var v4 bytes.Buffer
	v4.Write(make([]byte, len(Hash{})))
	if err := gob.NewEncoder(&v4).Encode(&profileManifest{Key: key, Bounds: []int{0}, TotalDyn: 200}); err != nil {
		t.Fatal(err)
	}
	sum := HashBytes(v4.Bytes()[len(Hash{}):])
	copy(v4.Bytes(), sum[:])
	if err := os.WriteFile(filepath.Join(s.Dir(), "manifests", key.ID()+".v4"), v4.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := s.PutBlob([]byte("shared-cow-segment-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(map[string]any{
		"format":    2,
		"key":       key,
		"blobs":     []string{h.String()},
		"total_dyn": 200,
		"counts":    map[string][]uint64{"app": {150, 40, 0}, "lib": {10}},
		"snaps": []map[string]any{{
			"dyn": 100, "cpu_dyn": 100, "r": make([]uint64, machine.NumReg), "f_bits": make([]uint64, machine.NumFReg),
			"segs":   []map[string]any{{"base": 0x1000, "name": "app.data", "size": 24, "pages": []int{0}, "domain": 1}},
			"counts": map[string][]uint64{"app": {98, 2, 0}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "manifests", key.ID()+".json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if prof, err := s.GetProfile(key); err != nil || prof != nil {
		t.Fatalf("other-format manifest: profile=%v err=%v, want a clean miss", prof != nil, err)
	}
	if m, f := s.Counter(CounterGoldenMisses), s.Counter(CounterFallback); m != 1 || f != 0 {
		t.Fatalf("golden-misses=%d fallback=%d, want 1 and 0", m, f)
	}
	if entries, err := s.List(); err != nil || len(entries) != 0 {
		t.Fatalf("inventory lists an unloadable entry: %+v, %v", entries, err)
	}
	if err := s.PutProfile(key, fakeProfile(), nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetProfile(key)
	if err != nil || got == nil {
		t.Fatalf("rewritten entry does not load: %v", err)
	}
	sameProfile(t, got, fakeProfile())
}

// plantV5 writes prof under key as a .v5 store did: this format's
// payload with the key's snapshot cadence, a uvarint 0, after its seed,
// checksummed like this format.
func plantV5(t *testing.T, s *Store, key Key, prof *profiler.Profile) {
	t.Helper()
	tmp := openT(t)
	if err := tmp.PutProfile(key, prof, nil); err != nil {
		t.Fatal(err)
	}
	v6, err := os.ReadFile(tmp.manifestPath(key.ID()))
	if err != nil {
		t.Fatal(err)
	}
	payload := v6[len(Hash{}):]
	head := appendStrs(nil, []string{key.Kind, key.Workload, key.Params})
	head = appendStrs(binary.AppendVarint(head, int64(key.OptLevel)), key.Defenses)
	n := len(binary.AppendVarint(head, key.Seed))
	v5 := slices.Concat(payload[:n], []byte{0}, payload[n:])
	sum := HashBytes(v5)
	if err := os.WriteFile(filepath.Join(s.Dir(), "manifests", key.ID()+".v5"), slices.Concat(sum[:], v5), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGetProfileCleanMiss(t *testing.T) {
	s := openT(t)
	prof, err := s.GetProfile(Key{Kind: "campaign", Workload: "nope"})
	if err != nil {
		t.Fatalf("clean miss should not error: %v", err)
	}
	if prof != nil {
		t.Fatalf("clean miss returned a profile")
	}
	if n := s.Counter(CounterGoldenMisses); n != 1 {
		t.Fatalf("golden-misses = %d, want 1", n)
	}
	if n := s.Counter(CounterFallback); n != 0 {
		t.Fatalf("fallback = %d, want 0 on a clean miss", n)
	}
}

func TestListInventory(t *testing.T) {
	s := openT(t)
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 4, WarmStart: true}
	if err := s.PutProfile(key, fakeProfile(), nil); err != nil {
		t.Fatalf("PutProfile: %v", err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(entries) != 1 || entries[0].Key.Workload != "HPCCG" || entries[0].Snaps != 2 {
		t.Fatalf("List = %+v", entries)
	}
	if entries[0].Seal != nil {
		t.Fatalf("entry has a seal before any trace was stored")
	}
}

func TestStoreSharedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key := Key{Kind: "campaign", Workload: "HPCCG", Seed: 2, WarmStart: true}
	if err := s1.PutProfile(key, fakeProfile(), nil); err != nil {
		t.Fatalf("PutProfile: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.GetProfile(key)
	if err != nil || got == nil {
		t.Fatalf("GetProfile after reopen: %v, %v", got, err)
	}
	if n := s2.Counter(CounterGoldenHits); n != 1 {
		t.Fatalf("golden-hits = %d, want 1", n)
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	s := openT(t)
	if _, err := s.PutBlob([]byte("abc")); err != nil {
		t.Fatalf("PutBlob: %v", err)
	}
	var temps []string
	filepath.Walk(s.Dir(), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && filepath.Base(path)[0] == '.' {
			temps = append(temps, path)
		}
		return nil
	})
	if len(temps) != 0 {
		t.Fatalf("temp files left behind: %v", temps)
	}
}
