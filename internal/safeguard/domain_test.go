package safeguard_test

import (
	"testing"

	"care/internal/core"
	"care/internal/machine"
	"care/internal/safeguard"
)

// chainRun executes one fault scenario through the escalation chain:
// run clean past the manual checkpoint, corrupt the protected load's
// index register so the access goes wild *inside the heap domain*
// (bit 30 stays well below the heap/lib boundary), and let the chain
// resolve it. persistent re-corrupts on every execution of the target,
// like a genuine bug; otherwise the register is corrupted once (but
// stays corrupt until the program overwrites it).
func chainRun(t *testing.T, bin *core.Binary, cfg safeguard.Config, persistent bool, tier machine.InterpTier) (*core.Process, machine.RunStatus) {
	t.Helper()
	target, _ := protectedFloatLoad(t, bin)
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: true, Safeguard: cfg, Tier: tier})
	if err != nil {
		t.Fatal(err)
	}
	// Clean prefix, then a full save so every live domain has a
	// generation to rewind to before the first fault.
	p.CPU.Run(2_000)
	if st := p.SG.Checkpoints(); st != nil {
		st.Save(p.CPU, 1)
	}
	injected := false
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		if c.PC == target && (persistent || !injected) && c.Dyn > 2_000 {
			injected = true
			mi := img.Prog.Code[(target-img.Base())/8]
			c.R[mi.Index] ^= 1 << 30
		}
	})
	st := p.Run(0)
	if !injected {
		t.Fatal("injection site never reached")
	}
	return p, st
}

// outcomes flattens the event log for sequence assertions.
func outcomes(p *core.Process) []safeguard.Outcome {
	var out []safeguard.Outcome
	for _, ev := range p.SG.Stats().Events {
		out = append(out, ev.Outcome)
	}
	return out
}

func requireSequence(t *testing.T, p *core.Process, want []safeguard.Outcome) {
	t.Helper()
	got := outcomes(p)
	if len(got) != len(want) {
		t.Fatalf("outcome sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome sequence %v, want %v", got, want)
		}
	}
}

// TestEscalationStageOrder is the chain's contract, as a table over
// configurations: kernel recompute preempts every later stage, the
// heuristic bit-bucket preempts the domain rewind, the domain rewind
// preempts whole-process rollback, rollback preempts kill, and each
// budget hands over to the next stage exactly when exhausted. (The
// induction stage sits inside the kernel phase — its placement is
// pinned by the induction-recovery tests.)
func TestEscalationStageOrder(t *testing.T) {
	armored := buildHPCCG(t, false)
	bare := buildHPCCG(t, true)
	fullChain := safeguard.Policy{DomainRewind: true, Rollback: true}

	t.Run("kernel-preempts-rewind", func(t *testing.T) {
		// With recovery artifacts every trap resolves in the kernel
		// stage; the armed rewind/rollback stages never fire.
		p, st := chainRun(t, armored, safeguard.Config{Policy: fullChain}, false, machine.TierSuperblock)
		if st != machine.StatusExited {
			t.Fatalf("armored run ended %v", st)
		}
		for _, o := range outcomes(p) {
			if o != safeguard.Recovered {
				t.Fatalf("outcome %s under the armored chain, want %s", o, safeguard.Recovered)
			}
		}
		if p.SG.DomainRewinds() != 0 || p.SG.Rollbacks() != 0 {
			t.Fatalf("kernel-stage recovery leaked into later stages: %d rewinds, %d rollbacks",
				p.SG.DomainRewinds(), p.SG.Rollbacks())
		}
	})

	t.Run("heuristic-preempts-rewind", func(t *testing.T) {
		cfg := safeguard.Config{Heuristic: true, Policy: fullChain}
		p, _ := chainRun(t, bare, cfg, false, machine.TierSuperblock)
		for _, o := range outcomes(p) {
			if o != safeguard.HeuristicPatched {
				t.Fatalf("outcome %s with the heuristic armed, want %s", o, safeguard.HeuristicPatched)
			}
		}
		if p.SG.DomainRewinds() != 0 || p.SG.Rollbacks() != 0 {
			t.Fatalf("heuristic stage fell through: %d rewinds, %d rollbacks",
				p.SG.DomainRewinds(), p.SG.Rollbacks())
		}
	})

	t.Run("rewind-then-rollback-then-kill", func(t *testing.T) {
		// A persistent heap-domain bug: two rewinds (memory-only, so the
		// corrupt register immediately re-faults), then — the per-domain
		// budget spent and never reset — two full rollbacks, then kill
		// with the patch stages' verdict.
		p, st := chainRun(t, bare, safeguard.Config{Policy: fullChain}, true, machine.TierSuperblock)
		if st == machine.StatusExited {
			t.Fatal("persistent bug exited cleanly")
		}
		requireSequence(t, p, []safeguard.Outcome{
			safeguard.DomainRewound, safeguard.DomainRewound,
			safeguard.RolledBack, safeguard.RolledBack,
			safeguard.NoDebugKey,
		})
		for _, ev := range p.SG.Stats().Events[:2] {
			if ev.Domain != machine.DomainHeap {
				t.Errorf("rewind attributed to %v, want %v", ev.Domain, machine.DomainHeap)
			}
			if ev.DomainRewind <= 0 || ev.Total() < ev.DomainRewind {
				t.Errorf("rewind timing not charged: %+v", ev)
			}
		}
		if p.SG.DomainRewinds() != 2 || p.SG.Rollbacks() != 2 {
			t.Fatalf("budgets: %d rewinds / %d rollbacks, want 2 / 2",
				p.SG.DomainRewinds(), p.SG.Rollbacks())
		}
	})

	t.Run("rewind-exhaustion-without-rollback-kills", func(t *testing.T) {
		p, st := chainRun(t, bare, safeguard.Config{Policy: safeguard.Policy{DomainRewind: true}}, true, machine.TierSuperblock)
		if st == machine.StatusExited {
			t.Fatal("persistent bug exited cleanly")
		}
		requireSequence(t, p, []safeguard.Outcome{
			safeguard.DomainRewound, safeguard.DomainRewound, safeguard.NoDebugKey,
		})
		if p.SG.Rollbacks() != 0 {
			t.Fatalf("%d rollbacks with the rollback stage disabled", p.SG.Rollbacks())
		}
	})

	t.Run("retry-budget-skips-patching-not-rewind", func(t *testing.T) {
		// The circuit breaker skips the *patch* stages; the rewind stage
		// still gets its shot, and only when its budget is also spent
		// does the exhaustion verdict reach the kill.
		pol := safeguard.Policy{DomainRewind: true, MaxDomainRewinds: 1, MaxTrapsPerPC: 1}
		p, st := chainRun(t, bare, safeguard.Config{Policy: pol}, true, machine.TierSuperblock)
		if st == machine.StatusExited {
			t.Fatal("persistent bug exited cleanly")
		}
		requireSequence(t, p, []safeguard.Outcome{
			safeguard.DomainRewound, safeguard.RetryBudgetExhausted,
		})
	})
}

// TestEscalationChainTierIdentity: the chain's decisions derive from
// the virtual machine state only, so the full escalation sequence is
// identical on every interpreter tier.
func TestEscalationChainTierIdentity(t *testing.T) {
	bin := buildHPCCG(t, true)
	cfg := safeguard.Config{Policy: safeguard.Policy{DomainRewind: true, Rollback: true}}
	type run struct {
		seq      []safeguard.Outcome
		domains  []machine.DomainID
		rewinds  int
		rollback int
		dyn      uint64
	}
	runs := map[machine.InterpTier]run{}
	for _, tier := range machine.Tiers() {
		p, _ := chainRun(t, bin, cfg, true, tier)
		r := run{seq: outcomes(p), rewinds: p.SG.DomainRewinds(), rollback: p.SG.Rollbacks(), dyn: p.CPU.Dyn}
		for _, ev := range p.SG.Stats().Events {
			r.domains = append(r.domains, ev.Domain)
		}
		runs[tier] = r
	}
	base := runs[machine.TierSuperblock]
	for tier, r := range runs {
		if len(r.seq) != len(base.seq) || r.rewinds != base.rewinds || r.rollback != base.rollback || r.dyn != base.dyn {
			t.Fatalf("tier %v diverges from superblock: %+v vs %+v", tier, r, base)
		}
		for i := range base.seq {
			if r.seq[i] != base.seq[i] || r.domains[i] != base.domains[i] {
				t.Fatalf("tier %v event %d: %s/%v vs %s/%v", tier, i,
					r.seq[i], r.domains[i], base.seq[i], base.domains[i])
			}
		}
	}
}

// TestBudgetCountersLogged: Attach surfaces the *effective* escalation
// budgets as high-water trace counters, so a campaign trace alone
// documents the policy it ran under.
func TestBudgetCountersLogged(t *testing.T) {
	bin := buildHPCCG(t, true)
	p, err := core.NewProcess(core.ProcessConfig{
		App: bin, Protected: true,
		Safeguard: safeguard.Config{
			Policy: safeguard.Policy{Rollback: true, MaxRollbacks: 5, DomainRewind: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SG.Trace().MaxCounter(safeguard.CounterMaxRollbacksBudget); got != 5 {
		t.Errorf("%s = %d, want 5", safeguard.CounterMaxRollbacksBudget, got)
	}
	// Zero defaults to 2, and the trace records the defaulted value.
	if got := p.SG.Trace().MaxCounter(safeguard.CounterMaxDomainRewindsBudget); got != 2 {
		t.Errorf("%s = %d, want the defaulted 2", safeguard.CounterMaxDomainRewindsBudget, got)
	}
}

// TestPolicyValidate is the shared flag-validation point: negative
// budgets are rejected with a descriptive error, zero and positive
// values pass.
func TestPolicyValidate(t *testing.T) {
	for _, tc := range []struct {
		pol safeguard.Policy
		ok  bool
	}{
		{safeguard.Policy{}, true},
		{safeguard.Policy{MaxRollbacks: 3, MaxDomainRewinds: 1, MaxTrapsPerPC: 8, StormTraps: 4}, true},
		{safeguard.Policy{MaxRollbacks: -1}, false},
		{safeguard.Policy{MaxDomainRewinds: -2}, false},
		{safeguard.Policy{MaxTrapsPerPC: -1}, false},
		{safeguard.Policy{StormTraps: -1}, false},
	} {
		err := tc.pol.Validate()
		if tc.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", tc.pol, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Validate(%+v) accepted a negative budget", tc.pol)
		}
	}
}
