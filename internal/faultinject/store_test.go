package faultinject

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

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
	// snapshots): it misses, runs its own golden passes, and warm-starts.
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
