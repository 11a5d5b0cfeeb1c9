package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/mpi"
	"care/internal/trace"
	"care/internal/workloads"
)

// rankFleet builds one world's worth of rank processes, mirroring
// RunJob's creation loop, so tests can drive the schedulers directly.
func rankFleet(t *testing.T, bin *core.Binary, ranks int, protected bool) (*mpi.World, []*machine.CPU, []*core.Process) {
	t.Helper()
	world := mpi.NewWorld(ranks)
	cpus := make([]*machine.CPU, ranks)
	procs := make([]*core.Process, ranks)
	for r := 0; r < ranks; r++ {
		p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: protected, Env: world.Env(r)})
		if err != nil {
			t.Fatal(err)
		}
		procs[r] = p
		cpus[r] = p.CPU
	}
	return world, cpus, procs
}

// TestRunShardedMatchesRun pins the scheduler-equivalence contract: the
// superstep scheduler with batched collective exchange produces the
// same RunResult, per-rank retirement counts, and per-rank result
// streams as the round-robin scheduler — a blocked collective parks a
// rank before the instruction retires, and reductions are rank-ordered
// sums, so batching arrivals shifts only wall-clock scheduling.
func TestRunShardedMatchesRun(t *testing.T) {
	bin := buildEval(t, "HPCCG", 0, false)
	for _, workers := range []int{1, 4} {
		w1, cpus1, procs1 := rankFleet(t, bin, 6, false)
		r1, err := mpi.Run(w1, cpus1, 0)
		if err != nil {
			t.Fatal(err)
		}
		w2, cpus2, procs2 := rankFleet(t, bin, 6, false)
		r2, err := mpi.RunSharded(w2, cpus2, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("workers=%d: RunResult differs:\n%+v\nvs\n%+v", workers, r2, r1)
		}
		for r := range cpus1 {
			if cpus1[r].Dyn != cpus2[r].Dyn {
				t.Fatalf("workers=%d: rank %d retired %d vs %d", workers, r, cpus2[r].Dyn, cpus1[r].Dyn)
			}
			if !reflect.DeepEqual(procs1[r].Results(), procs2[r].Results()) {
				t.Fatalf("workers=%d: rank %d results differ", workers, r)
			}
		}
	}
}

// TestRunShardedDeadRankMatchesRun: a rank killed by an injected fault
// starves the collectives identically under both schedulers — same dead
// rank, same survivor retirement counts.
func TestRunShardedDeadRankMatchesRun(t *testing.T) {
	// Same recipe as TestUnprotectedParallelJobDies: search on the
	// protected build for a SIGSEGV-producing injection, then arm it on
	// an unprotected fleet — the test compares schedulers, not recovery,
	// but it needs a dead rank to compare.
	pbin := buildEval(t, "HPCCG", 0, true)
	inj, err := FindRecoverableInjection(pbin, 2002, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bin := buildEval(t, "HPCCG", 0, false)
	w1, cpus1, _ := rankFleet(t, bin, 4, false)
	faultinject.Arm(cpus1[0], inj.Trigger, inj.Bits)
	r1, err := mpi.Run(w1, cpus1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DeadRank < 0 {
		t.Skip("this particular fault was benign without protection") // possible but rare
	}
	w2, cpus2, _ := rankFleet(t, bin, 4, false)
	faultinject.Arm(cpus2[0], inj.Trigger, inj.Bits)
	r2, err := mpi.RunSharded(w2, cpus2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("dead-rank RunResult differs:\n%+v\nvs\n%+v", r2, r1)
	}
	for r := range cpus1 {
		if cpus1[r].Dyn != cpus2[r].Dyn {
			t.Fatalf("rank %d retired %d vs %d", r, cpus2[r].Dyn, cpus1[r].Dyn)
		}
	}
}

// TestClusterPaperScale runs the paper's 512-rank cluster shape (x 6
// threads = 3072 reported cores) on a small per-rank problem, checking
// completion, superstep progress reporting, and that the per-rank trace
// ring stays bounded (the wide-job TraceCap clamp).
func TestClusterPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank job")
	}
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{NX: 3, NY: 3, NZ: 3, Steps: 3}),
		core.BuildOptions{OptLevel: 1, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	var beats int
	cfg := Config{
		Workload: "HPCCG", Ranks: 512, Protected: true,
		Progress: func(done, total int) {
			beats++
			if total != 512 {
				t.Errorf("progress total = %d, want 512", total)
			}
		},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunJob(cfg, bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if !res.Completed {
		t.Fatalf("512-rank job did not complete: %+v", res)
	}
	if res.Cores != 512*6 {
		t.Errorf("cores = %d, want 3072", res.Cores)
	}
	if beats == 0 {
		t.Error("progress callback never fired")
	}
	// The trace must hold the job's spans without one ring per rank
	// ballooning: at TraceCap 1024 per rank the merged job recorder
	// cannot have retained more spans than the default cap allows.
	if res.Trace.Len() > trace.DefaultSpanCap {
		t.Errorf("job trace retained %d spans, cap is %d", res.Trace.Len(), trace.DefaultSpanCap)
	}
	if grew := after.HeapAlloc - before.HeapAlloc; grew > 2<<30 {
		t.Errorf("512-rank job grew the heap by %d bytes; per-rank state is not bounded", grew)
	}
}
