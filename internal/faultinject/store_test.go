package faultinject

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/store"
	"care/internal/trace"
)

// The campaign-level store contract: store-on, store-off, cold, and
// cache-hit runs produce byte-identical scrubbed campaign JSONL, and a
// corrupt store degrades to the cold path with store.fallback charged —
// the result is still identical, only slower.

var storeWallRe = regexp.MustCompile(`"wall_ns":-?[0-9]+`)
var storeNsCounterRe = regexp.MustCompile(`("name":"[a-z.-]+-ns","value":)-?[0-9]+`)

func scrubbedJSONL(t testing.TB, rec *trace.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := storeWallRe.ReplaceAllString(buf.String(), `"wall_ns":0`)
	return storeNsCounterRe.ReplaceAllString(s, "${1}0")
}

func openStoreAt(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCampaignStoreCacheHit(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	key := store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 9}
	base := func() *Campaign {
		return &Campaign{App: bin, N: 24, Model: SingleBit, Seed: 9, Workers: 2, Trace: true, WarmStart: true}
	}
	cold, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL := scrubbedJSONL(t, cold.Trace)

	dir := t.TempDir()
	// First store-on run: a miss that populates the entry.
	s1 := openStoreAt(t, dir)
	c1 := base()
	c1.Store, c1.StoreKey = s1, key
	res1, err := c1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s1.Counter(store.CounterGoldenMisses); n != 1 {
		t.Fatalf("first run golden-misses = %d, want 1", n)
	}
	if n := s1.Counter(store.CounterGoldenHits); n != 0 {
		t.Fatalf("first run golden-hits = %d, want 0", n)
	}
	if got := scrubbedJSONL(t, res1.Trace); got != wantJSONL {
		t.Fatalf("store-on (miss) JSONL differs from store-off (%d vs %d bytes)", len(got), len(wantJSONL))
	}

	// Second identical run: a pure cache hit that skips the golden run.
	s2 := openStoreAt(t, dir)
	c2 := base()
	c2.Store, c2.StoreKey = s2, key
	res2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Counter(store.CounterGoldenHits); n != 1 {
		t.Fatalf("second run golden-hits = %d, want 1", n)
	}
	if n := s2.Counter(store.CounterGoldenMisses); n != 0 {
		t.Fatalf("second run golden-misses = %d, want 0", n)
	}
	if got := scrubbedJSONL(t, res2.Trace); got != wantJSONL {
		t.Fatalf("cache-hit JSONL differs from cold (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	// The non-trace result fields must match too.
	a, b := *cold, *res2
	a.Trace, b.Trace = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cache-hit result differs from cold:\n%+v\nvs\n%+v", b, a)
	}
	// And the seals agree, which is the same statement via Merkle.
	if sa, sb := store.Seal(cold.Trace), store.Seal(res2.Trace); sa.Root != sb.Root {
		t.Fatalf("cold and cache-hit trace seals differ: %s vs %s", sa.Root, sb.Root)
	}
}

func TestCampaignStoreCorruptionFallsBackToCold(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	key := store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 13}
	base := func() *Campaign {
		return &Campaign{App: bin, N: 16, Model: SingleBit, Seed: 13, Trace: true, WarmStart: true}
	}
	cold, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1 := openStoreAt(t, dir)
	c1 := base()
	c1.Store, c1.StoreKey = s1, key
	if _, err := c1.Run(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in every blob: the next run must detect the mismatch,
	// fall back to a cold golden run, and still produce the exact
	// result.
	filepath.Walk(filepath.Join(dir, "blobs"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)/3] ^= 0x20
		return os.WriteFile(path, b, 0o644)
	})
	s2 := openStoreAt(t, dir)
	c2 := base()
	c2.Store, c2.StoreKey = s2, key
	res2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Counter(store.CounterFallback); n == 0 {
		t.Fatal("corrupt store did not charge store.fallback")
	}
	if n := s2.Counter(store.CounterGoldenHits); n != 0 {
		t.Fatal("corrupt store counted a golden hit")
	}
	if want, got := scrubbedJSONL(t, cold.Trace), scrubbedJSONL(t, res2.Trace); got != want {
		t.Fatalf("fallback run JSONL differs from cold (%d vs %d bytes)", len(got), len(want))
	}
	// The fallback run's repopulate rewrote every rotted blob it needed,
	// so the store has repaired itself: the next run is a golden hit.
	s3 := openStoreAt(t, dir)
	c3 := base()
	c3.Store, c3.StoreKey = s3, key
	res3, err := c3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s3.Counter(store.CounterGoldenHits); n != 1 {
		t.Fatalf("run after the fallback: golden-hits = %d, want 1 (store did not repair itself)", n)
	}
	if n := s3.Counter(store.CounterFallback); n != 0 {
		t.Fatalf("run after the fallback: store.fallback = %d, want 0", n)
	}
	if want, got := scrubbedJSONL(t, cold.Trace), scrubbedJSONL(t, res3.Trace); got != want {
		t.Fatalf("repaired-store run JSONL differs from cold (%d vs %d bytes)", len(got), len(want))
	}
}

func TestCoverageStoreCacheHit(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	key := store.Key{Kind: "coverage", Workload: "HPCCG", Defenses: []string{"care"}, Seed: 5}
	base := func() *CoverageExperiment {
		return &CoverageExperiment{App: bin, Trials: 4, Model: SingleBit, Seed: 5, Workers: 2}
	}
	plain, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1 := openStoreAt(t, dir)
	e1 := base()
	e1.Store, e1.StoreKey = s1, key
	if _, err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s1.Counter(store.CounterGoldenMisses); n != 1 {
		t.Fatalf("first coverage run golden-misses = %d, want 1", n)
	}
	s2 := openStoreAt(t, dir)
	e2 := base()
	e2.Store, e2.StoreKey = s2, key
	res, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Counter(store.CounterGoldenHits); n != 1 {
		t.Fatalf("second coverage run golden-hits = %d, want 1", n)
	}
	if plain.Recovered != res.Recovered || plain.SigsegvTrials != res.SigsegvTrials || plain.Attempts != res.Attempts {
		t.Fatalf("cache-hit coverage differs: %+v vs %+v", res, plain)
	}
}

// TestCampaignStoreKeySeparatesCadence: a cold entry and a warm entry
// under the same campaign key must not collide (the effective key pins
// WarmStart/SnapEvery).
func TestCampaignStoreKeySeparatesCadence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	key := store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 21}
	dir := t.TempDir()

	s1 := openStoreAt(t, dir)
	cold := &Campaign{App: bin, N: 8, Seed: 21, Store: s1, StoreKey: key}
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := openStoreAt(t, dir)
	warm := &Campaign{App: bin, N: 8, Seed: 21, WarmStart: true, Store: s2, StoreKey: key}
	res, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The warm run must NOT have hit the cold entry (which has no
	// snapshots): it misses, runs its own golden pass, and warm-starts.
	if n := s2.Counter(store.CounterGoldenHits); n != 0 {
		t.Fatalf("warm run hit the cold entry (golden-hits = %d)", n)
	}
	if res.WarmStart == nil || res.WarmStart.Snapshots == 0 {
		t.Fatalf("warm run lost its snapshots: %+v", res.WarmStart)
	}
	// And now a second warm run hits its own entry.
	s3 := openStoreAt(t, dir)
	warm2 := &Campaign{App: bin, N: 8, Seed: 21, WarmStart: true, Store: s3, StoreKey: key}
	res2, err := warm2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := s3.Counter(store.CounterGoldenHits); n != 1 {
		t.Fatalf("second warm run golden-hits = %d, want 1", n)
	}
	if res2.WarmStart == nil || res2.WarmStart.Snapshots != res.WarmStart.Snapshots {
		t.Fatalf("cached warm entry lost snapshots: %+v vs %+v", res2.WarmStart, res.WarmStart)
	}
}

// TestCampaignStoreOtherFormatIsAMiss: an entry as earlier stores
// wrote it (a JSON manifest, format 2, at manifests/<id>.json, over one
// blob per page) is a miss, not corruption. The first run goes cold
// without charging store.fallback and writes exactly one blob, the
// pack, beside an entry in the current format; the result is
// byte-identical, and the next run is a hit that writes nothing.
func TestCampaignStoreOtherFormatIsAMiss(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	key := store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 9, WarmStart: true}
	base := func() *Campaign {
		return &Campaign{App: bin, N: 16, Model: SingleBit, Seed: 9, Workers: 2, Trace: true, WarmStart: true}
	}
	cold, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	want := scrubbedJSONL(t, cold.Trace)
	prof, err := base().Prepare()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plantJSONManifest(t, openStoreAt(t, dir), key, prof, bin.Prog.CodeImage())

	for i, wantHit := range []bool{false, true} {
		s := openStoreAt(t, dir)
		c := base()
		c.Store, c.StoreKey = s, key
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		hits, misses, fallback := s.Counter(store.CounterGoldenHits), s.Counter(store.CounterGoldenMisses), s.Counter(store.CounterFallback)
		if fallback != 0 || (wantHit && hits != 1) || (!wantHit && misses != 1) {
			t.Fatalf("run %d: golden-hits=%d golden-misses=%d fallback=%d, want a clean %s",
				i+1, hits, misses, fallback, map[bool]string{false: "miss", true: "hit"}[wantHit])
		}
		if n, want := s.Counter(store.CounterBlobPuts), map[bool]int64{false: 1}[wantHit]; n != want {
			t.Fatalf("run %d wrote %d blobs, want %d", i+1, n, want)
		}
		if got := scrubbedJSONL(t, res.Trace); got != want {
			t.Fatalf("run %d JSONL differs from the storeless run (%d vs %d bytes)", i+1, len(got), len(want))
		}
	}
}

// plantJSONManifest writes prof under key as earlier stores did: every
// distinct non-zero page of the snapshots and of the .text image stored
// as a blob, and a JSON manifest (format 2) at manifests/<id>.json that
// lists the blob hashes in hex, each segment as indices into that list
// (-1 for a never-written page), and floats as IEEE-754 bits.
func plantJSONManifest(t *testing.T, s *store.Store, key store.Key, prof *profiler.Profile, text []byte) {
	t.Helper()
	type segRef struct {
		Base   uint64 `json:"base"`
		Name   string `json:"name"`
		Size   int    `json:"size"`
		Pages  []int  `json:"pages"`
		Domain uint8  `json:"domain,omitempty"`
	}
	type snapManifest struct {
		Dyn        uint64              `json:"dyn"`
		R          []uint64            `json:"r"`
		FBits      []uint64            `json:"f_bits"`
		PC         uint64              `json:"pc"`
		CPUDyn     uint64              `json:"cpu_dyn"`
		Step       int                 `json:"step"`
		HeapNext   uint64              `json:"heap_next"`
		Segs       []segRef            `json:"segs"`
		ResultBits []uint64            `json:"result_bits,omitempty"`
		Printed    []string            `json:"printed,omitempty"`
		Counts     map[string][]uint64 `json:"counts,omitempty"`
	}
	bits := func(fs []float64) []uint64 {
		var bs []uint64
		for _, f := range fs {
			bs = append(bs, math.Float64bits(f))
		}
		return bs
	}
	man := struct {
		Format     int                 `json:"format"`
		Key        store.Key           `json:"key"`
		Blobs      []string            `json:"blobs"`
		TotalDyn   uint64              `json:"total_dyn"`
		Counts     map[string][]uint64 `json:"counts"`
		GoldenBits []uint64            `json:"golden_bits,omitempty"`
		ExitCode   uint64              `json:"exit_code"`
		Text       []segRef            `json:"text,omitempty"`
		Snaps      []snapManifest      `json:"snaps,omitempty"`
	}{Format: 2, Key: key, TotalDyn: prof.TotalDyn, Counts: prof.Counts, GoldenBits: bits(prof.Golden), ExitCode: prof.ExitCode}
	ids := map[store.Hash]int{}
	seg := func(base machine.Word, name string, size int, pages [][]byte, dom machine.DomainID) segRef {
		r := segRef{Base: uint64(base), Name: name, Size: size, Domain: uint8(dom)}
		for _, p := range pages {
			if p == nil {
				r.Pages = append(r.Pages, -1)
				continue
			}
			h, err := s.PutBlob(p)
			if err != nil {
				t.Fatal(err)
			}
			id, ok := ids[h]
			if !ok {
				id = len(man.Blobs)
				ids[h] = id
				man.Blobs = append(man.Blobs, h.String())
			}
			r.Pages = append(r.Pages, id)
		}
		return r
	}
	var textPages [][]byte
	for off := 0; off < len(text); off += machine.PageSize {
		textPages = append(textPages, text[off:min(off+machine.PageSize, len(text))])
	}
	man.Text = []segRef{seg(0, "app", len(text), textPages, 0)}
	for _, sp := range prof.Snaps {
		st := sp.State
		sm := snapManifest{Dyn: sp.Dyn, FBits: bits(st.CPU.F[:]), PC: uint64(st.CPU.PC), CPUDyn: st.CPU.Dyn,
			Step: st.Step, HeapNext: uint64(st.Mem.HeapNext), ResultBits: bits(st.EnvResults), Printed: st.EnvPrinted, Counts: sp.Counts}
		for _, w := range st.CPU.R {
			sm.R = append(sm.R, uint64(w))
		}
		for _, sg := range st.Mem.Segs {
			sm.Segs = append(sm.Segs, seg(sg.Base, sg.Name, sg.Size, sg.Pages, sg.Domain))
		}
		man.Snaps = append(man.Snaps, sm)
	}
	b, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "manifests", key.ID()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}
