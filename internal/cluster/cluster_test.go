package cluster

import (
	"reflect"
	"testing"
	"time"

	"care/internal/core"
	"care/internal/defense"
	"care/internal/machine"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/workloads"
)

func buildEval(t testing.TB, name string, opt int, protected bool) *core.Binary {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: opt, Defenses: defense.If(protected, "care")})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestFaultFreeParallelJob(t *testing.T) {
	bin := buildEval(t, "HPCCG", 0, true)
	cfg := Config{Workload: "HPCCG", Ranks: 4, ThreadsPerRank: 6, Protected: true}
	res, err := RunJob(cfg, bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("fault-free job did not complete: %+v", res)
	}
	if res.Cores != 24 {
		t.Errorf("cores = %d, want 24", res.Cores)
	}
	if res.Recoveries != 0 || res.RecoveryStall != 0 {
		t.Errorf("fault-free job saw recoveries: %+v", res)
	}
}

func TestParallelJobSurvivesInjectedFault(t *testing.T) {
	// A bigger per-rank problem so the job's virtual time dwarfs the
	// recovery stall, as the paper's minutes-long jobs do.
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{NX: 6, NY: 6, NZ: 5, Steps: 25}),
		core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := FindRecoverableInjection(bin, 1001, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: "HPCCG", Ranks: 2, ThreadsPerRank: 6, Protected: true}
	base, err := RunJob(cfg, bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The faulty job charges the *wall-measured* recovery stall into its
	// virtual time, so the delta is noisy under load; take the best of a
	// few attempts before judging the Figure 10 claim.
	frac := 1.0
	for attempt := 0; attempt < 3 && frac > 0.10; attempt++ {
		faulty, err := RunJob(cfg, bin, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !faulty.Injected {
			t.Fatal("injection never fired in the parallel run")
		}
		if !faulty.Completed {
			t.Fatalf("CARE-protected job died: %+v", faulty)
		}
		if faulty.Recoveries == 0 {
			t.Fatalf("no recovery recorded on rank 0: %+v", faulty)
		}
		// Figure 10: the delay must be tiny relative to job time.
		delay := faulty.VirtualTime - base.VirtualTime
		if delay < 0 {
			delay = -delay
		}
		frac = float64(delay) / float64(base.VirtualTime)
		t.Logf("base=%v faulty=%v stall=%v (delta %.3f%%)", base.VirtualTime, faulty.VirtualTime, faulty.RecoveryStall, 100*frac)
	}
	if frac > 0.10 {
		t.Errorf("fault+CARE delayed the job by %.1f%%; paper reports almost no delay", 100*frac)
	}
}

func TestUnprotectedParallelJobDies(t *testing.T) {
	pbin := buildEval(t, "HPCCG", 0, true)
	inj, err := FindRecoverableInjection(pbin, 2002, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ubin := buildEval(t, "HPCCG", 0, false)
	cfg := Config{Workload: "HPCCG", Ranks: 4, Protected: false}
	res, err := RunJob(cfg, ubin, inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Skip("this particular fault was benign without protection") // possible but rare
	}
	if res.DeadRank != 0 {
		t.Errorf("expected rank 0 to die, got %d", res.DeadRank)
	}
}

func TestCheckpointRestartBaseline(t *testing.T) {
	w, err := workloads.Get("GTC-P")
	if err != nil {
		t.Fatal(err)
	}
	params := workloads.Params{Steps: 40, NParticles: 60}
	var prev time.Duration
	for _, interval := range []int{5, 10, 20} {
		res, err := RunCheckpointRestart(w, params, 0, interval, 33)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if !res.Verified {
			t.Fatalf("interval %d: restored run did not reproduce golden output", interval)
		}
		if res.Checkpoints == 0 {
			t.Fatalf("interval %d: no checkpoints written", interval)
		}
		t.Logf("interval=%d ckpts=%d io=%v requeue=%v read=%v recompute=%v (dyn %d) total=%v",
			interval, res.Checkpoints, res.CheckpointIO, res.Requeue,
			res.RestartRead, res.Recompute, res.RecomputeDyn, res.RecoveryTotal)
		if prev != 0 && res.RecoveryTotal < prev {
			t.Errorf("recovery cost did not grow with checkpoint interval: %v then %v", prev, res.RecoveryTotal)
		}
		prev = res.RecoveryTotal
	}
}

// TestClusterTierEquivalence is care-cluster's side of the interpreter
// contract: a protected multi-rank job with an injected fault produces
// the same deterministic JobResult fields and the same trace spans on
// every tier. Only wall-measured times (Span.Wall and the stall fields
// derived from it) may differ — the CI smoke diffs the exported JSONL
// after scrubbing wall_ns the same way.
func TestClusterTierEquivalence(t *testing.T) {
	bin := buildEval(t, "HPCCG", 0, true)
	inj, err := FindRecoverableInjection(bin, 1001, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tier machine.InterpTier) *JobResult {
		res, err := RunJob(Config{Workload: "HPCCG", Ranks: 2, ThreadsPerRank: 6, Protected: true, Tier: tier}, bin, inj)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	step, fast := run(machine.TierStep), run(machine.TierSuperblock)
	if fast.Completed != step.Completed || fast.Ranks != step.Ranks ||
		fast.Cores != step.Cores || fast.MaxDyn != step.MaxDyn ||
		fast.TotalDyn != step.TotalDyn || fast.Recoveries != step.Recoveries ||
		fast.Rollbacks != step.Rollbacks || fast.Injected != step.Injected ||
		fast.DeadRank != step.DeadRank {
		t.Fatalf("superblock job result differs from step:\n%+v\nvs\n%+v", fast, step)
	}
	fs, ss := fast.Trace.Spans(), step.Trace.Spans()
	if len(fs) != len(ss) {
		t.Fatalf("superblock span count %d, step %d", len(fs), len(ss))
	}
	for i := range fs {
		a, b := fs[i], ss[i]
		a.Wall, b.Wall = 0, 0
		if a != b {
			t.Errorf("superblock span %d differs (Wall scrubbed):\n %+v\n %+v", i, a, b)
		}
	}
}

// TestSearchSharesOneStoreEntry: every experiment of a recoverable-
// injection search profiles the same binary, so the search keeps one
// store entry, keyed by its own seed, and its later experiments hit it.
// HPCCG O1 at search seed 30 finds no clean recovery in its first
// experiment, so the search runs a second one: one golden miss, one
// hit, and the injection a storeless search finds.
func TestSearchSharesOneStoreEntry(t *testing.T) {
	spec := shard.BuildSpec{Workload: "HPCCG", Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12},
		OptLevel: 1, Defenses: []string{"care"}}
	bin, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindRecoverableInjection(bin, 30, SearchOptions{WarmStart: true, Store: st, Build: spec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FindRecoverableInjection(bin, 30, SearchOptions{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("search with a store found %+v, without %+v", got, want)
	}
	if misses, hits := st.Counter(store.CounterGoldenMisses), st.Counter(store.CounterGoldenHits); misses != 1 || hits != 1 {
		t.Fatalf("search recorded %d golden misses and %d hits, want 1 and 1", misses, hits)
	}
}
