package safeguard

import (
	"errors"
	"fmt"
	"time"

	"care/internal/checkpoint"
	"care/internal/machine"
)

// Policy configures the escalating recovery chain. The zero value is
// the paper's one-shot Safeguard: any activation that cannot patch the
// operand kills the process. Enabling stages layers recoveries instead:
//
//	kernel recompute → induction repair → heuristic bit-bucket →
//	domain rewind → checkpoint rollback → kill
//
// (induction and heuristic stages are enabled by the existing
// Config.InductionRecovery and Config.Heuristic flags; Policy adds the
// rollback stage and the circuit breakers that decide when to stop
// patching and escalate.)
type Policy struct {
	// Rollback enables the checkpoint-rollback stage: when no patch
	// stage applies, restore the latest snapshot of the Safeguard's own
	// checkpoint store (Checkpoints) and resume from the snapshot step.
	// The modelled snapshot-read and requeue costs
	// (checkpoint.ReadCost, checkpoint.RequeueDelay) are charged into
	// the activation's Event.Rollback phase.
	Rollback bool
	// MaxRollbacks bounds snapshot restores per process, so a
	// deterministically recurring trap (a genuine program bug) cannot
	// rollback-loop forever. 0 means 2.
	MaxRollbacks int
	// DomainRewind enables the domain-rewind stage, tried before
	// whole-process rollback: attribute the faulting access to a memory
	// domain, rewind just that domain to its latest consistent snapshot
	// generation, and resume in place — registers, PC, and every other
	// domain keep their progress. A rewind the consistency proofs refuse
	// (machine.ErrDomainInconsistent) falls through to rollback/kill.
	DomainRewind bool
	// MaxDomainRewinds bounds rewinds *per domain*; past the budget the
	// chain escalates to whole-process rollback. The tallies are
	// cumulative for the process lifetime (a full rollback does not
	// reset them), so a recurrently faulting domain cannot ping-pong the
	// chain forever. 0 means 2.
	MaxDomainRewinds int
	// MaxTrapsPerPC is the per-PC retry budget: once more than this
	// many traps have been handled at one PC, patch stages are skipped
	// and the chain escalates straight to rollback/kill. 0 disables the
	// budget (the paper's runtime has none).
	MaxTrapsPerPC int
	// StormTraps is the recovery-storm detector: StormTraps traps at
	// the same PC within stormWindow dynamic instructions mean patching
	// is not making progress (each repair immediately re-faults), so
	// the chain stops patching and escalates. 0 disables the detector.
	StormTraps int
}

// stormWindow is the recovery-storm detector's window in dynamic
// instructions.
const stormWindow = 4096

func (p Policy) maxRollbacks() int {
	if p.MaxRollbacks == 0 {
		return 2
	}
	return p.MaxRollbacks
}

func (p Policy) maxDomainRewinds() int {
	if p.MaxDomainRewinds == 0 {
		return 2
	}
	return p.MaxDomainRewinds
}

// NeedsStore reports whether the policy has a stage that restores from
// a checkpoint store. Attach creates the Safeguard's own store exactly
// then; campaign layers use it to decide when warm-start snapshot reuse
// is unsafe (the store's first snapshot must be taken at _start).
func (p Policy) NeedsStore() bool { return p.Rollback || p.DomainRewind }

// Validate rejects unusable budget values. It is the single validation
// point shared by the care-inject and care-cluster flag parsers;
// negative budgets would silently read as "unlimited" in the
// escalation chain's comparisons.
func (p Policy) Validate() error {
	switch {
	case p.MaxRollbacks < 0:
		return fmt.Errorf("safeguard: MaxRollbacks %d is negative (0 means the default of %d)", p.MaxRollbacks, Policy{}.maxRollbacks())
	case p.MaxDomainRewinds < 0:
		return fmt.Errorf("safeguard: MaxDomainRewinds %d is negative (0 means the default of %d)", p.MaxDomainRewinds, Policy{}.maxDomainRewinds())
	case p.MaxTrapsPerPC < 0:
		return fmt.Errorf("safeguard: MaxTrapsPerPC %d is negative (0 disables the budget)", p.MaxTrapsPerPC)
	case p.StormTraps < 0:
		return fmt.Errorf("safeguard: StormTraps %d is negative (0 disables the detector)", p.StormTraps)
	}
	return nil
}

// pcState tracks trap pressure at one PC for the retry budget and the
// storm detector.
type pcState struct {
	traps  int      // total traps handled at this PC (monotonic)
	recent []uint64 // Dyn at the most recent traps (ring of StormTraps)
}

// noteTrap records a handled trap at t.PC and reports whether the
// policy's circuit breakers demand skipping the patch stages, along
// with the outcome that classifies the escalation.
func (sg *Safeguard) noteTrap(c *machine.CPU, t *machine.Trap) (skip bool, why Outcome) {
	pol := sg.cfg.Policy
	if pol.MaxTrapsPerPC == 0 && pol.StormTraps == 0 {
		return false, ""
	}
	if sg.pcTraps == nil {
		sg.pcTraps = map[machine.Word]*pcState{}
	}
	st := sg.pcTraps[t.PC]
	if st == nil {
		st = &pcState{}
		sg.pcTraps[t.PC] = st
	}
	st.traps++
	if pol.StormTraps > 0 {
		st.recent = append(st.recent, c.Dyn)
		if len(st.recent) > pol.StormTraps {
			st.recent = st.recent[1:]
		}
		if len(st.recent) == pol.StormTraps &&
			st.recent[len(st.recent)-1]-st.recent[0] <= stormWindow {
			sg.rec.Add(CounterStorms, 1)
			return true, RecoveryStorm
		}
	}
	if pol.MaxTrapsPerPC > 0 && st.traps > pol.MaxTrapsPerPC {
		return true, RetryBudgetExhausted
	}
	return false, ""
}

// escalate is the tail of the chain: the domain-rewind stage, then the
// checkpoint-rollback stage, then kill. ev.Outcome carries the failure
// (or circuit-breaker verdict) that brought the chain here; a
// successful rewind or rollback overwrites it.
func (sg *Safeguard) escalate(c *machine.CPU, t *machine.Trap, ev Event) machine.TrapAction {
	pol := sg.cfg.Policy
	if pol.DomainRewind {
		if act, ok := sg.tryDomainRewind(c, t, ev); ok {
			return act
		}
	}
	if pol.Rollback && sg.Rollbacks() < pol.maxRollbacks() {
		t0 := time.Now()
		if rd, err := sg.store.Restore(c, sg.store.Latest()); err == nil {
			// The restored memory predates this handler's transient
			// mappings; re-probe the scratch stack and re-allocate the
			// bit bucket on next use.
			sg.bitBucket = 0
			// A rollback resets the storm windows: execution resumes
			// from a known-good state, so earlier trap bursts no longer
			// describe the current trajectory. Total per-PC counts stay
			// (the retry budget is cumulative).
			for _, st := range sg.pcTraps {
				st.recent = st.recent[:0]
			}
			// Charge the modelled snapshot read plus the requeue delay
			// on top of the live restore time, so policy comparisons
			// see the I/O a real rollback would pay.
			ev.Rollback = time.Since(t0) + rd + checkpoint.RequeueDelay
			ev.Outcome = RolledBack
			sg.record(c.Dyn, ev)
			sg.release()
			return machine.TrapResume
		}
	}
	sg.record(c.Dyn, ev)
	sg.release()
	return machine.TrapKill
}

// rewindableDomain reports whether a domain is a legal rewind target.
// Code is read-only (never snapshotted); the scratch stack is transient
// recovery-runtime state that no checkpoint governs.
func rewindableDomain(d machine.DomainID) bool {
	return d != machine.DomainCode && d != machine.DomainScratch
}

// tryDomainRewind is the domain-rewind escalation stage: attribute the
// faulting access to a domain, rewind that domain to its latest
// consistent generation, and resume at the faulting instruction with
// registers and every other domain untouched. Nothing is replayed — the
// access re-executes and recovery relies on the rewound memory no
// longer steering it wild. Returns ok=false (stage skipped, chain
// continues to rollback/kill) when the domain has no snapshot, its
// per-domain budget is spent, or the consistency proofs refuse the
// rewind. Storm windows are deliberately NOT reset: a rewind that fails
// to stop the trap burst must still trip the detector.
func (sg *Safeguard) tryDomainRewind(c *machine.CPU, t *machine.Trap, ev Event) (machine.TrapAction, bool) {
	pol := sg.cfg.Policy
	d := c.Mem.FaultDomain(t.Addr)
	if !rewindableDomain(d) || sg.domainRewinds[d] >= pol.maxDomainRewinds() {
		return 0, false
	}
	if sg.store.LatestDomain(d) == nil {
		return 0, false
	}
	t0 := time.Now()
	rd, err := sg.store.RestoreDomain(c, d)
	if err != nil {
		if errors.Is(err, machine.ErrDomainInconsistent) {
			sg.rec.Add(CounterDomainRewindInconsistent, 1)
		}
		return 0, false
	}
	sg.domainRewinds[d]++
	// The rewound image predates the bit bucket only if the bucket lives
	// in the rewound domain (it is heap-allocated); drop the cached
	// address so the heuristic stage re-allocates instead of writing
	// into a stale epoch.
	if d == machine.DomainHeap {
		sg.bitBucket = 0
	}
	ev.DomainRewind = time.Since(t0) + rd
	ev.Domain = d
	ev.Outcome = DomainRewound
	sg.record(c.Dyn, ev)
	sg.release()
	return machine.TrapResume, true
}

// Rollbacks reports how many checkpoint rollbacks this process has
// performed (counter-backed, so it is exact past the span ring).
func (sg *Safeguard) Rollbacks() int { return int(sg.rec.Counter(CounterRolledBack)) }

// DomainRewinds reports how many domain rewinds this process has
// performed across all domains.
func (sg *Safeguard) DomainRewinds() int { return int(sg.rec.Counter(CounterDomainRewinds)) }
