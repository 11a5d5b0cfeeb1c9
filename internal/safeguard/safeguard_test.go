package safeguard_test

import (
	"time"

	"testing"

	"care/internal/core"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/workloads"
)

// TestKernelsRecomputeTrueAddresses is CARE's central invariant,
// verified exhaustively on an uncorrupted run: at every dynamic
// execution of a protected memory access (sampled per static site), the
// recovery kernel — fed only by the values Safeguard would fetch via
// debug info — must recompute exactly the effective address the
// instruction is about to dereference. This is what makes the §3.4
// scope check ("kernel address == faulting address ⇒ inputs were
// contaminated") sound, and what guarantees a successful patch restores
// the semantically correct address.
func TestKernelsRecomputeTrueAddresses(t *testing.T) {
	for _, wname := range []string{"HPCCG", "GTC-P"} {
		for _, opt := range []int{0, 1} {
			w, err := workloads.Get(wname)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: opt, Defenses: []string{"care"}})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProcess(core.ProcessConfig{App: bin})
			if err != nil {
				t.Fatal(err)
			}
			unit := &safeguard.Unit{Image: p.App, TableBytes: bin.RecoveryTable, LibBytes: bin.RecoveryLib}
			sg := safeguard.NewForVerification([]*safeguard.Unit{unit}, safeguard.Config{Eager: true})

			checked := map[int]int{}
			checks, mismatches := 0, 0
			const perSite = 2
			p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
				// The next instruction is about to execute; if it is a
				// protected access its address registers are final.
				ni := img.Prog.IndexOf(c.PC)
				if ni < 0 {
					return
				}
				next := &img.Prog.Code[ni]
				if !next.Op.IsMemAccess() || next.Line == 0 || checked[ni] >= perSite {
					return
				}
				actual := next.EffectiveAddr(&c.R)
				computed, ok, err := sg.ComputeAddress(c, unit, ni)
				if err != nil {
					t.Errorf("%s O%d idx %d (%s): %v", wname, opt, ni, machine.Disassemble(next), err)
					checked[ni] = perSite
					return
				}
				if !ok {
					return // no kernel for this access (direct/skipped)
				}
				checked[ni]++
				checks++
				if computed != actual {
					mismatches++
					t.Errorf("%s O%d idx %d (%s): kernel computed 0x%x, instruction accesses 0x%x",
						wname, opt, ni, machine.Disassemble(next), computed, actual)
				}
			})
			if st := p.Run(0); st != machine.StatusExited {
				t.Fatalf("%s O%d: %v (%v)", wname, opt, st, p.CPU.PendingTrap)
			}
			if checks < 5 {
				t.Fatalf("%s O%d: only %d kernel checks performed", wname, opt, checks)
			}
			t.Logf("%s O%d: %d kernel dry-runs across %d sites, %d mismatches",
				wname, opt, checks, len(checked), mismatches)
		}
	}
}

// TestIdleSafeguardIsInvisible verifies the §5.2 claim mechanically: a
// protected fault-free run never activates Safeguard and produces
// identical output and instruction counts.
func TestIdleSafeguardIsInvisible(t *testing.T) {
	w, err := workloads.Get("miniMD")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(protected bool) (*core.Process, uint64) {
		p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: protected})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Run(0); st != machine.StatusExited {
			t.Fatal(st)
		}
		return p, p.CPU.Dyn
	}
	pu, du := run(false)
	pp, dp := run(true)
	if du != dp {
		t.Fatalf("instruction counts differ: %d vs %d", du, dp)
	}
	if pp.SG.Stats().Activations != 0 {
		t.Fatalf("safeguard activated %d times on a fault-free run", pp.SG.Stats().Activations)
	}
	ru, rp := pu.Results(), pp.Results()
	for i := range ru {
		if ru[i] != rp[i] {
			t.Fatalf("results differ at %d", i)
		}
	}
}

// TestRecoveryIsIdempotentAcrossRepeatedFaults: a fault whose value
// feeds several memory accesses triggers several recoveries (§5.3); the
// handler must survive repeated activation in one run.
func TestRecoveryStatsAccumulate(t *testing.T) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Protected: true})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the same index register at two different protected loads.
	var targets []machine.Word
	for i := range bin.Prog.Code {
		in := &bin.Prog.Code[i]
		if in.Op == machine.MFLoad && in.Index != machine.NoReg && in.Line != 0 {
			targets = append(targets, bin.Prog.AddrOf(i))
			if len(targets) == 2 {
				break
			}
		}
	}
	if len(targets) < 2 {
		t.Skip("not enough protected float loads")
	}
	injected := map[machine.Word]bool{}
	p.CPU.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		for _, tgt := range targets {
			if c.PC == tgt && !injected[tgt] && c.Dyn > 1000 {
				injected[tgt] = true
				mi := img.Prog.Code[(tgt-img.Base())/8]
				c.R[mi.Index] ^= 1 << 42
			}
		}
	})
	st := p.Run(0)
	if st != machine.StatusExited {
		t.Fatalf("%v (%v)", st, p.CPU.PendingTrap)
	}
	if p.SG.Stats().Recovered != 2 {
		t.Fatalf("recovered %d faults, want 2 (events %+v)", p.SG.Stats().Recovered, p.SG.Stats().Events)
	}
	for _, ev := range p.SG.Stats().Events {
		if ev.Total() <= 0 || ev.Prep() <= 0 {
			t.Errorf("degenerate event timing: %+v", ev)
		}
	}
}

// TestEventPrepExcludesKernelAndRollback is the regression test for the
// Figure 9 preparation ratio: Prep() must exclude both the kernel
// execution time and the checkpoint-rollback time. (An earlier version
// computed Total()-Kernel, silently counting the rollback restore as
// "preparation" and skewing the ratio for escalation-chain policies.)
func TestEventPrepExcludesKernelAndRollback(t *testing.T) {
	ev := safeguard.Event{
		Diagnose: 10, Load: 20, Fetch: 30, Patch: 40,
		Kernel:   500,
		Rollback: 7000,
	}
	if got, want := ev.Total(), time.Duration(7600); got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
	if got, want := ev.Prep(), time.Duration(100); got != want {
		t.Fatalf("Prep() = %v, want %v (must exclude Kernel and Rollback)", got, want)
	}
}
