package mpi

import (
	"testing"

	"care/internal/core"
	"care/internal/ir"
	"care/internal/irbuild"
	"care/internal/machine"
)

// buildAllreduceProgram: each rank contributes (rank+1) in `rounds`
// consecutive allreduces, checking the result each time, then emits it.
func buildAllreduceProgram(rounds int) *ir.Module {
	m := ir.NewModule("mpitest")
	fb := irbuild.New(ir.NewBuilder(m))
	fb.NewFunc("main", ir.I64)
	rank := fb.HostCall("mpi_rank", ir.I64)
	mine := fb.IToF(fb.Add(rank, irbuild.I(1)))
	for r := 0; r < rounds; r++ {
		sum := fb.HostCall("mpi_allreduce_sum_f64", ir.F64, mine)
		fb.Result(sum)
		fb.HostCall("mpi_barrier", ir.Void)
	}
	fb.Ret(irbuild.I(0))
	if err := ir.VerifyModule(m); err != nil {
		panic(err)
	}
	return m
}

func runWorld(t *testing.T, n, rounds int, quantum uint64) (*RunResult, []*core.Process) {
	t.Helper()
	bin, err := core.Build(buildAllreduceProgram(rounds), core.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(n)
	cpus := make([]*machine.CPU, n)
	procs := make([]*core.Process, n)
	for r := 0; r < n; r++ {
		p, err := core.NewProcess(core.ProcessConfig{App: bin, Env: w.Env(r)})
		if err != nil {
			t.Fatal(err)
		}
		procs[r] = p
		cpus[r] = p.CPU
	}
	res, err := Run(w, cpus, quantum)
	if err != nil {
		t.Fatal(err)
	}
	return res, procs
}

func TestAllreduceSumsAllRanks(t *testing.T) {
	res, procs := runWorld(t, 5, 3, 0)
	if !res.Completed {
		t.Fatalf("world did not complete: %+v", res)
	}
	want := float64(1 + 2 + 3 + 4 + 5)
	for r, p := range procs {
		if len(p.Results()) != 3 {
			t.Fatalf("rank %d emitted %d results", r, len(p.Results()))
		}
		for _, v := range p.Results() {
			if v != want {
				t.Fatalf("rank %d saw allreduce = %v, want %v", r, v, want)
			}
		}
	}
}

// TestSchedulingInvariance: results must not depend on the scheduler
// quantum (the determinism property campaign comparisons rely on).
func TestSchedulingInvariance(t *testing.T) {
	_, pa := runWorld(t, 4, 5, 100)
	_, pb := runWorld(t, 4, 5, 50_000)
	for r := range pa {
		ra, rb := pa[r].Results(), pb[r].Results()
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("rank %d result %d differs across quanta: %v vs %v", r, i, ra[i], rb[i])
			}
		}
	}
}

func TestSingleRankWorld(t *testing.T) {
	res, procs := runWorld(t, 1, 2, 0)
	if !res.Completed || procs[0].Results()[0] != 1 {
		t.Fatalf("single rank world broken: %+v %v", res, procs[0].Results())
	}
}

func TestDeadRankParksSurvivors(t *testing.T) {
	bin, err := core.Build(buildAllreduceProgram(2), core.BuildOptions{OptLevel: 0})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(3)
	cpus := make([]*machine.CPU, 3)
	for r := 0; r < 3; r++ {
		p, err := core.NewProcess(core.ProcessConfig{App: bin, Env: w.Env(r)})
		if err != nil {
			t.Fatal(err)
		}
		cpus[r] = p.CPU
	}
	// Kill rank 1 almost immediately: corrupt its PC to unmapped code.
	fired := false
	cpus[1].AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if !fired && c.Dyn > 20 {
			fired = true
			c.PC = 0x1234
		}
	})
	res, err := Run(w, cpus, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("world completed despite a dead rank")
	}
	if res.DeadRank != 1 {
		t.Fatalf("dead rank = %d", res.DeadRank)
	}
	if res.DeadTrap == nil || res.DeadTrap.Sig != machine.SigILL {
		t.Fatalf("dead trap = %v", res.DeadTrap)
	}
}

func TestMismatchedCollectivePanics(t *testing.T) {
	w := NewWorld(2)
	c := (*coll)(w)
	if _, ok := c.AllreduceSum(0, 1.0); ok {
		t.Fatal("lone arrival completed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched collective kinds accepted")
		}
	}()
	c.Barrier(1) // rank 1 calls a barrier while rank 0 is in allreduce
}

func TestPipelinedCollectives(t *testing.T) {
	// A fast rank can consume instance k and arrive at k+1 before slow
	// ranks consumed k.
	w := NewWorld(2)
	c := (*coll)(w)
	if _, ok := c.AllreduceSum(0, 1); ok {
		t.Fatal("premature completion")
	}
	v, ok := c.AllreduceSum(1, 2) // completes instance 0 for rank 1
	if !ok || v != 3 {
		t.Fatalf("rank1 instance0: %v %v", v, ok)
	}
	// Rank 1 races ahead to instance 1.
	if _, ok := c.AllreduceSum(1, 10); ok {
		t.Fatal("instance1 completed with one rank")
	}
	// Rank 0 retries instance 0 and gets the old result.
	v, ok = c.AllreduceSum(0, 1)
	if !ok || v != 3 {
		t.Fatalf("rank0 instance0 retry: %v %v", v, ok)
	}
	// Now rank 0 arrives at instance 1 and completes it.
	v, ok = c.AllreduceSum(0, 20)
	if !ok || v != 30 {
		t.Fatalf("rank0 instance1: %v %v", v, ok)
	}
	v, ok = c.AllreduceSum(1, 10)
	if !ok || v != 30 {
		t.Fatalf("rank1 instance1 retry: %v %v", v, ok)
	}
}
