package safeguard_test

import (
	"testing"

	"care/internal/core"
	"care/internal/defense"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/workloads"
)

// buildHPCCG compiles the HPCCG workload once per call (O0, optionally
// without CARE artifacts).
func buildHPCCG(t *testing.T, noArmor bool) *core.Binary {
	t.Helper()
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 0, Defenses: defense.If(!noArmor, "care")})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// protectedFloatLoad finds a protected indexed float load to corrupt.
func protectedFloatLoad(t *testing.T, bin *core.Binary) (machine.Word, machine.MInstr) {
	t.Helper()
	for i := range bin.Prog.Code {
		in := &bin.Prog.Code[i]
		if in.Op == machine.MFLoad && in.Index != machine.NoReg && in.Line != 0 {
			return bin.Prog.AddrOf(i), *in
		}
	}
	t.Skip("no protected indexed float load")
	return 0, machine.MInstr{}
}

// goldenRun executes an unprotected process to completion.
func goldenRun(t *testing.T, bin *core.Binary) ([]float64, uint64) {
	t.Helper()
	p, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Run(0); st != machine.StatusExited {
		t.Fatalf("golden run: %v", st)
	}
	return p.Results(), p.CPU.Dyn
}

// TestSigbusIsWrongSignal: CARE handles SIGSEGV only, as in the paper.
// A misaligned access (SIGBUS) at a protected load is classified
// WrongSignal and kills the process, even though the same corrupted
// operand would be repairable as a SIGSEGV.
func TestSigbusIsWrongSignal(t *testing.T) {
	bin := buildHPCCG(t, false)
	target, _ := protectedFloatLoad(t, bin)
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && !injected && c.Dyn > 1000 {
			injected = true
			// Bit 0 of the base register: the access stays inside the
			// mapped segment but loses its 8-byte alignment.
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Base] ^= 1
		}
	})
	if st := p.Run(0); !injected || st == machine.StatusExited {
		t.Fatalf("run ended %v (injected %v), want a SIGBUS kill", st, injected)
	}
	stats := p.SG.Stats()
	if n := len(stats.Events); n != 1 {
		t.Fatalf("%d events for one SIGBUS, want 1", n)
	}
	if got := stats.Events[0].Outcome; got != safeguard.WrongSignal {
		t.Fatalf("outcome %s, want %s", got, safeguard.WrongSignal)
	}
	if stats.Recovered != 0 || stats.Unrecoverable != 1 {
		t.Fatalf("stats %+v, want 0 recovered / 1 unrecoverable", stats)
	}
}

// TestHeuristicBitBucket covers the Config.Heuristic fallback on a
// binary with no recovery artifacts: proper recovery is impossible
// (NoDebugKey), so the bit-bucket patch keeps the process alive at the
// price of a potential SDC, and the accounting books it as patched but
// not properly recovered.
func TestHeuristicBitBucket(t *testing.T) {
	bin := buildHPCCG(t, true)
	golden, dyn := goldenRun(t, bin)
	target, _ := protectedFloatLoad(t, bin)

	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{Heuristic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && !injected && c.Dyn > 1000 {
			injected = true
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 42
		}
	})
	st := p.Run(8 * dyn)
	if !injected {
		t.Fatal("injection site never reached")
	}
	if st != machine.StatusExited {
		t.Fatalf("heuristic run ended %v (%v)", st, p.CPU.PendingTrap)
	}
	if p.SG.Stats().Activations == 0 {
		t.Fatal("fault never trapped")
	}
	patched := 0
	for _, ev := range p.SG.Stats().Events {
		if ev.Outcome != safeguard.HeuristicPatched {
			t.Fatalf("outcome %s, want %s (events %+v)", ev.Outcome, safeguard.HeuristicPatched, p.SG.Stats().Events)
		}
		patched++
	}
	// Heuristic patches keep the process alive but are not proper
	// recoveries: they land in the Unrecoverable counter.
	if p.SG.Stats().Recovered != 0 || p.SG.Stats().Unrecoverable != patched {
		t.Fatalf("stats %+v, want 0 recovered / %d unrecoverable", p.SG.Stats(), patched)
	}
	if len(p.Results()) != len(golden) {
		t.Fatalf("%d results, want %d (bit bucket did not keep the run alive)", len(p.Results()), len(golden))
	}
}

// TestRollbackStageRestoresGolden covers the chain's rollback stage: on
// a binary without recovery artifacts every patch stage fails, so the
// policy restores the initial snapshot; the transient fault does not
// recur, and the run completes with golden output.
func TestRollbackStageRestoresGolden(t *testing.T) {
	bin := buildHPCCG(t, true)
	golden, _ := goldenRun(t, bin)
	target, _ := protectedFloatLoad(t, bin)

	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{
			Policy: safeguard.Policy{Rollback: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	injected := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && !injected && c.Dyn > 1000 {
			injected = true
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 42
		}
	})
	st := p.Run(0)
	if st != machine.StatusExited {
		t.Fatalf("rollback run ended %v (%v)", st, p.CPU.PendingTrap)
	}
	if p.SG.Rollbacks() != 1 || p.SG.Stats().RolledBack != 1 {
		t.Fatalf("rollbacks=%d stats=%+v, want exactly one rollback", p.SG.Rollbacks(), p.SG.Stats())
	}
	ev := p.SG.Stats().Events[len(p.SG.Stats().Events)-1]
	if ev.Outcome != safeguard.RolledBack {
		t.Fatalf("outcome %s, want %s", ev.Outcome, safeguard.RolledBack)
	}
	// The rollback phase must charge the modelled snapshot read and
	// requeue delay, and Total() must include it.
	if ev.Rollback <= 0 || ev.Total() < ev.Rollback {
		t.Fatalf("rollback timing not charged: %+v", ev)
	}
	res := p.Results()
	if len(res) != len(golden) {
		t.Fatalf("%d results, want %d", len(res), len(golden))
	}
	for i := range golden {
		if res[i] != golden[i] {
			t.Fatalf("result %d = %v, want %v (restored run diverged)", i, res[i], golden[i])
		}
	}
}

// TestRollbackBudgetStopsLoop: a deterministic bug re-faults after
// every restore, so the chain must stop at Policy.MaxRollbacks and kill
// instead of rolling back forever.
func TestRollbackBudgetStopsLoop(t *testing.T) {
	bin := buildHPCCG(t, true)
	target, _ := protectedFloatLoad(t, bin)

	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{
			Policy: safeguard.Policy{Rollback: true, MaxRollbacks: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No once-flag: the corruption recurs on every execution of the
	// target, like a genuine program bug.
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && c.Dyn > 1000 {
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 42
		}
	})
	st := p.Run(0)
	if st == machine.StatusExited {
		t.Fatal("deterministic bug exited cleanly")
	}
	if p.SG.Rollbacks() != 2 {
		t.Fatalf("%d rollbacks, want exactly MaxRollbacks=2", p.SG.Rollbacks())
	}
	last := p.SG.Stats().Events[len(p.SG.Stats().Events)-1]
	if last.Outcome == safeguard.RolledBack {
		t.Fatalf("last event is still a rollback: %+v", p.SG.Stats().Events)
	}
}

// TestRetryBudgetEscalates covers Policy.MaxTrapsPerPC on a protected
// binary: the first traps at a PC recover normally; once the budget is
// spent the chain skips patching and (without rollback) kills.
func TestRetryBudgetEscalates(t *testing.T) {
	bin := buildHPCCG(t, false)
	target, _ := protectedFloatLoad(t, bin)

	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{
			Policy: safeguard.Policy{MaxTrapsPerPC: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && c.Dyn > 1000 {
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 42
		}
	})
	st := p.Run(0)
	if st == machine.StatusExited {
		t.Fatal("persistent corruption exited cleanly")
	}
	evs := p.SG.Stats().Events
	if len(evs) != 3 {
		t.Fatalf("%d events, want 2 recoveries + 1 escalation: %+v", len(evs), evs)
	}
	for _, ev := range evs[:2] {
		if ev.Outcome != safeguard.Recovered {
			t.Fatalf("pre-budget outcome %s, want %s", ev.Outcome, safeguard.Recovered)
		}
	}
	if evs[2].Outcome != safeguard.RetryBudgetExhausted {
		t.Fatalf("post-budget outcome %s, want %s", evs[2].Outcome, safeguard.RetryBudgetExhausted)
	}
}

// TestStormDetectorTrips covers the recovery-storm breaker: repeated
// traps at one PC within the dynamic-instruction window stop the
// patching loop even when each individual patch "succeeds".
func TestStormDetectorTrips(t *testing.T) {
	bin := buildHPCCG(t, false)
	target, _ := protectedFloatLoad(t, bin)

	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{
			Policy: safeguard.Policy{StormTraps: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && c.Dyn > 1000 {
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 42
		}
	})
	st := p.Run(0)
	if st == machine.StatusExited {
		t.Fatal("storming run exited cleanly")
	}
	if p.SG.Stats().Storms != 1 {
		t.Fatalf("storms=%d, want 1 (events %+v)", p.SG.Stats().Storms, p.SG.Stats().Events)
	}
	last := p.SG.Stats().Events[len(p.SG.Stats().Events)-1]
	if last.Outcome != safeguard.RecoveryStorm {
		t.Fatalf("outcome %s, want %s", last.Outcome, safeguard.RecoveryStorm)
	}
}
