package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/faultinject"
	"care/internal/store"
)

func openStoreAt(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptBlobs flips one byte in every blob of the store at dir.
func corruptBlobs(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(dir, "blobs"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)/2] ^= 0x01
		n++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store has no blobs to corrupt")
	}
}

// TestCampaignShardStoreEquivalence: subprocess workers loading the
// golden profile from a shared store produce byte-identical results to
// the single-process cold run, and the entry they share serves the next
// run as a golden hit.
func TestCampaignShardStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	build := BuildSpec{Workload: "HPCCG"}
	bin := buildSpecOrDie(t, build)
	base := func() *faultinject.Campaign {
		return &faultinject.Campaign{
			App: bin, N: 18, Model: faultinject.SingleBit, Seed: 11,
			Workers: 1, Trace: true, WarmStart: true,
		}
	}
	single, err := base().Run()
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreAt(t, t.TempDir())
	c := base()
	c.Shards = 3
	c.ShardExec = selfExec()
	c.Store = st
	c.StoreKey = store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 11}
	res, err := RunCampaign(c, build)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
		t.Fatalf("store-sharded result differs from single-process:\n%+v\nvs\n%+v", b, a)
	}
	if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
		t.Fatalf("store-sharded trace JSONL differs (%d vs %d bytes)", len(got), len(want))
	}
	// The coordinator and the workers all missed and populated the same
	// entry; whoever wrote last, the store holds its manifest.
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key.Workload != "HPCCG" || !entries[0].Key.WarmStart || entries[0].Snaps == 0 {
		t.Fatalf("store inventory after the first run = %+v, want the warm HPCCG manifest", entries)
	}
	// A second identical sharded campaign into the same store is a
	// golden cache hit.
	c2 := base()
	c2.Shards = 3
	c2.ShardExec = selfExec()
	c2.Store = st
	c2.StoreKey = c.StoreKey
	res2, err := RunCampaign(c2, build)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := scrubJSONL(t, res.Trace), scrubJSONL(t, res2.Trace); got != want {
		t.Fatalf("cache-hit sharded trace differs from first run")
	}
	if st.Counter(store.CounterGoldenHits) == 0 {
		t.Fatal("second campaign did not hit the golden cache")
	}
}

// TestShardCorruptStoreFallsBackCold: with every blob of the shared
// store corrupted, the coordinator and every worker fail verification
// and run the same cold Prepare, so a sharded campaign and a sharded
// coverage search both still match the single-process result byte for
// byte, and the coordinator charges store.fallback.
func TestShardCorruptStoreFallsBackCold(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("CARE_SHARD_SERVE", "1")
	t.Run("campaign", func(t *testing.T) {
		build := BuildSpec{Workload: "HPCCG"}
		bin := buildSpecOrDie(t, build)
		key := store.Key{Kind: "campaign", Workload: "HPCCG", Seed: 13}
		base := func() *faultinject.Campaign {
			return &faultinject.Campaign{
				App: bin, N: 12, Model: faultinject.SingleBit, Seed: 13,
				Workers: 1, Trace: true, WarmStart: true,
			}
		}
		single, err := base().Run()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		prime := base()
		prime.Store, prime.StoreKey = openStoreAt(t, dir), key
		if _, err := prime.Prepare(); err != nil {
			t.Fatal(err)
		}
		corruptBlobs(t, dir)
		st := openStoreAt(t, dir)
		c := base()
		c.Shards, c.ShardExec, c.Store, c.StoreKey = 3, selfExec(), st, key
		res, err := RunCampaign(c, build)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := scrubCampaign(single), scrubCampaign(res); !reflect.DeepEqual(a, b) {
			t.Fatalf("corrupt-store sharded result differs from single-process:\n%+v\nvs\n%+v", b, a)
		}
		if want, got := scrubJSONL(t, single.Trace), scrubJSONL(t, res.Trace); got != want {
			t.Fatalf("corrupt-store sharded trace JSONL differs (%d vs %d bytes)", len(got), len(want))
		}
		if st.Counter(store.CounterFallback) == 0 {
			t.Fatal("corrupt store did not charge store.fallback")
		}
	})
	t.Run("coverage", func(t *testing.T) {
		build := BuildSpec{Workload: "HPCCG", Defenses: []string{"care"}}
		bin := buildSpecOrDie(t, build)
		key := store.Key{Kind: "coverage", Workload: "HPCCG", Defenses: []string{"care"}, Seed: 5}
		base := func() *faultinject.CoverageExperiment {
			return &faultinject.CoverageExperiment{
				App: bin, Trials: 6, Model: faultinject.SingleBit, Seed: 5,
				Workers: 2, RecordInjections: true, WarmStart: true,
			}
		}
		single, err := base().Run()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		prime := base()
		prime.Store, prime.StoreKey = openStoreAt(t, dir), key
		if _, err := prime.Prepare(); err != nil {
			t.Fatal(err)
		}
		corruptBlobs(t, dir)
		st := openStoreAt(t, dir)
		e := base()
		e.Shards, e.ShardExec, e.Store, e.StoreKey = 2, selfExec(), st, key
		res, err := RunCoverage(e, build)
		if err != nil {
			t.Fatal(err)
		}
		requireCoverageEqual(t, single, res)
		if st.Counter(store.CounterFallback) == 0 {
			t.Fatal("corrupt store did not charge store.fallback")
		}
	})
}
