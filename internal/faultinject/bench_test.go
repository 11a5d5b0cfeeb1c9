package faultinject

import (
	"fmt"
	"testing"

	"care/internal/core"
	"care/internal/store"
	"care/internal/workloads"
)

// BenchmarkCampaignWorkers measures campaign throughput as the worker
// pool widens; the workers=1 case is the old serial engine's cost.
// Every variant computes the identical CampaignResult.
func BenchmarkCampaignWorkers(b *testing.B) {
	bin := buildWorkload(b, "HPCCG", 0, false)
	const n = 64
	for _, w := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := (&Campaign{App: bin, N: n, Model: SingleBit, Seed: 1, Workers: w}).Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Injections) != n {
					b.Fatalf("%d injections", len(res.Injections))
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkCampaignWorkersTracked is the same sweep with the §2 taint
// tracker attached — the heaviest per-trial configuration, where the
// pool pays off most.
func BenchmarkCampaignWorkersTracked(b *testing.B) {
	bin := buildWorkload(b, "HPCCG", 0, false)
	const n = 32
	for _, w := range []int{1, 0} {
		name := "workers=1"
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := (&Campaign{App: bin, N: n, Model: SingleBit, Seed: 1,
					TrackPropagation: true, Workers: w}).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkCampaignWarmStart is the headline warm-start comparison:
// the identical campaign run cold (every trial replays the golden
// prefix from _start) and warm (trials clone the nearest golden
// snapshot), at the default cadence. Warm must be measurably faster;
// the computed CampaignResult is bit-identical either way. ReportAllocs
// doubles as the per-trial allocation guard (run with -benchmem).
func BenchmarkCampaignWarmStart(b *testing.B) {
	bin := buildWorkload(b, "HPCCG", 0, false)
	const n = 64
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := (&Campaign{
					App: bin, N: n, Model: SingleBit, Seed: 1, WarmStart: warm,
				}).Run()
				if err != nil {
					b.Fatal(err)
				}
				if warm && res.WarmStart.SkippedDyn == 0 {
					b.Fatal("warm campaign skipped nothing")
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkCampaignStoreHit is the artifact-store headline: the same
// warm-start campaign run cold (the golden run executes and captures
// its snapshot cadence every iteration) and against a pre-populated
// content-addressed store, where Prepare is a pure cache hit that
// loads the verified profile instead of executing the golden run. The
// prepare row times that verified hit alone (Campaign.Prepare: read and
// decode the manifest, read and re-hash the one pack of pages). The
// computed CampaignResult is bit-identical either way (pinned by
// TestCampaignStoreCacheHit); only the preparation cost differs. The
// workload runs a longer CG solve (Steps 160) than the default test size — the
// store trades one verified pack read for golden-run execution, so its
// win scales with golden-run length (the paper's golden runs are
// minutes, not milliseconds).
func BenchmarkCampaignStoreHit(b *testing.B) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		b.Fatal(err)
	}
	p := workloads.Params{Steps: 160}
	bin, err := core.Build(w.Module(p), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 8
	key := store.Key{Kind: "campaign", Workload: "HPCCG", Params: `{"Steps":160}`, Seed: 1}
	dir := b.TempDir()
	seedStore, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	// Populate the entry once, outside the timed region.
	warm := &Campaign{App: bin, N: n, Model: SingleBit, Seed: 1, WarmStart: true,
		Store: seedStore, StoreKey: key}
	if _, err := warm.Prepare(); err != nil {
		b.Fatal(err)
	}
	for _, hit := range []bool{false, true} {
		name := "cold"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				c := &Campaign{App: bin, N: n, Model: SingleBit, Seed: 1, WarmStart: true}
				if hit {
					c.Store, c.StoreKey = st, key
				}
				res, err := c.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.WarmStart == nil || res.WarmStart.Snapshots == 0 {
					b.Fatal("campaign lost its snapshots")
				}
			}
			if hit {
				if got := st.Counter(store.CounterGoldenHits); got != int64(b.N) {
					b.Fatalf("golden-hits = %d, want %d", got, b.N)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
	b.Run("prepare", func(b *testing.B) {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		c := &Campaign{App: bin, N: n, Model: SingleBit, Seed: 1, WarmStart: true, Store: st, StoreKey: key}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Prepare(); err != nil {
				b.Fatal(err)
			}
		}
		if got := st.Counter(store.CounterGoldenHits); got != int64(b.N) {
			b.Fatalf("golden-hits = %d, want %d", got, b.N)
		}
	})
}

// BenchmarkCoverageWorkers measures the §5 coverage experiment under
// the chunked speculative pool.
func BenchmarkCoverageWorkers(b *testing.B) {
	bin := buildWorkload(b, "HPCCG", 0, true)
	for _, w := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := (&CoverageExperiment{App: bin, Trials: 20, Seed: 1, Workers: w}).Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Attempts)/b.Elapsed().Seconds(), "attempts/s")
			}
		})
	}
}
