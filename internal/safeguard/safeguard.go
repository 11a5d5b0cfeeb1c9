// Package safeguard implements CARE's runtime system: a SIGSEGV handler
// (installed on the simulated CPU the way the paper's library is
// LD_PRELOADed into a process) that diagnoses a crashing memory access,
// locates its recovery kernel through the lazily-loaded Recovery Table,
// fetches the kernel's arguments from the stalled process via debug
// information, executes the kernel against live process memory,
// patches the faulting operand with the recomputed address, and resumes
// the process at the faulting instruction (the paper's Algorithm 1).
package safeguard

import (
	"fmt"
	"math"
	"time"

	"care/internal/checkpoint"
	"care/internal/debuginfo"
	"care/internal/hostenv"
	"care/internal/machine"
	"care/internal/rtable"
	"care/internal/trace"
)

// Unit is the recovery data shipped alongside one protected image: the
// encoded Recovery Table and the encoded recovery-library "shared
// object". Both stay as opaque bytes until a fault occurs.
type Unit struct {
	Image      *machine.Image
	TableBytes []byte
	LibBytes   []byte
}

// Outcome classifies one Safeguard activation.
type Outcome string

// Activation outcomes.
const (
	// Recovered: the operand was patched and execution resumed.
	Recovered Outcome = "recovered"
	// NoDebugKey: the faulting instruction carries no source key
	// (frame/prologue traffic or unprotected image).
	NoDebugKey Outcome = "no-debug-key"
	// NoKernel: no recovery-table entry for the key (direct accesses,
	// real program bugs).
	NoKernel Outcome = "no-kernel"
	// ParamUnavailable: a kernel argument had no valid location at the
	// faulting PC (optimised away) or its frame slot was unreadable.
	ParamUnavailable Outcome = "param-unavailable"
	// KernelFault: the kernel itself faulted (its inputs were
	// contaminated in a way that breaks a cloned load).
	KernelFault Outcome = "kernel-fault"
	// OutOfScope: the kernel recomputed exactly the faulting address,
	// proving the corruption hit a kernel input — CARE's SDC guard.
	OutOfScope Outcome = "out-of-scope"
	// WrongSignal: the trap was not a SIGSEGV (not handled).
	WrongSignal Outcome = "wrong-signal"
	// HeuristicPatched: LetGo-style fallback redirected the access to a
	// bit bucket (only in Heuristic mode; may introduce SDCs).
	HeuristicPatched Outcome = "heuristic-patched"
	// RecoveredInduction: a corrupted induction variable was
	// reconstructed from an affine sibling (Figure-11 extension).
	RecoveredInduction Outcome = "recovered-induction"
	// DomainRewound: no patch stage applied, so the escalation chain
	// rewound the faulting access's memory domain to its latest
	// consistent snapshot generation and resumed in place, keeping every
	// other domain's progress (Policy.DomainRewind).
	DomainRewound Outcome = "domain-rewound"
	// RolledBack: no patch stage applied, so the escalation chain
	// restored the latest checkpoint snapshot and resumed from its
	// step (Policy.Rollback).
	RolledBack Outcome = "rolled-back"
	// RecoveryStorm: the storm detector saw Policy.StormTraps traps at
	// this PC within stormWindow dynamic instructions — patching is not
	// making progress — and no rollback was available.
	RecoveryStorm Outcome = "recovery-storm"
	// RetryBudgetExhausted: more than Policy.MaxTrapsPerPC traps were
	// handled at this PC and no rollback was available.
	RetryBudgetExhausted Outcome = "retry-budget-exhausted"
	// DefenseDetected: a detection-only defense pass (PRESAGE, SFI)
	// raised a deterministic SIGTRAP via care_detect. There is no
	// kernel to recompute — the check proves corruption but cannot
	// repair it — so the activation enters the escalation chain
	// directly at the domain-rewind/rollback stages; unless the policy
	// restores (Policy.NeedsStore), the detection is fail-stop.
	DefenseDetected Outcome = "defense-detected"
)

// Event records one activation for the recovery-time analysis
// (Figure 9: >98% of recovery time is preparation, not the kernel).
type Event struct {
	PC      machine.Word
	Addr    machine.Word
	Outcome Outcome
	// Phase timings.
	Diagnose time.Duration // PC->key->table entry
	Load     time.Duration // decode table + dlopen recovery library
	Fetch    time.Duration // argument retrieval via debug info
	Kernel   time.Duration // recovery-kernel execution
	Patch    time.Duration // operand update
	// DomainRewind is the domain-swap cost of a DomainRewound
	// activation: the live rewind time plus the cost model's modelled
	// memory-copy charge. Domain names the rewound domain.
	DomainRewind time.Duration
	Domain       machine.DomainID
	// Rollback is the checkpoint-restore cost of a RolledBack
	// activation: the live restore time plus the cost model's snapshot
	// read and requeue charges.
	Rollback time.Duration
}

// Total returns the end-to-end recovery time of the event.
func (e Event) Total() time.Duration {
	return e.Diagnose + e.Load + e.Fetch + e.Kernel + e.Patch + e.DomainRewind + e.Rollback
}

// Prep returns the preparation share of the event: everything but
// kernel execution and checkpoint rollback. (Rollback and domain
// rewinds are restoration work, not preparation — including them would
// skew the Figure 9 ratio for escalation-chain policies.)
func (e Event) Prep() time.Duration {
	return e.Total() - e.Kernel - e.Rollback - e.DomainRewind
}

// Stats aggregates Safeguard activity. It is derived on demand from the
// safeguard's trace (see Safeguard.Stats), not maintained as a separate
// ledger.
type Stats struct {
	Activations   int
	Recovered     int
	Unrecoverable int
	// RolledBack counts activations resolved by restoring a checkpoint
	// snapshot (neither an in-place recovery nor a kill).
	RolledBack int
	// DomainRewinds counts activations resolved by rewinding one memory
	// domain in place.
	DomainRewinds int
	// Storms counts recovery-storm detector trips.
	Storms int
	Events []Event
	// IdleFootprintBytes is the steady-state memory held while no fault
	// is being handled: the undecoded table/library bytes (the
	// reproduction's analogue of the paper's fixed 27MB, which was
	// mostly resident LLVM/protobuf code).
	IdleFootprintBytes int
	// PeakRecoveryBytes is the largest transient footprint observed
	// during a repair (decoded table + decoded library code).
	PeakRecoveryBytes int
}

// Config tunes Safeguard; the zero value is the paper's configuration.
type Config struct {
	// Eager keeps the decoded table and recovery library resident
	// instead of reloading per fault (ablation: latency vs footprint).
	Eager bool
	// PatchBase always patches the base register instead of preferring
	// the index register (ablation of the paper's §3.4 default).
	PatchBase bool
	// Heuristic enables a LetGo/RCV-style fallback: when proper
	// recovery is impossible, redirect the access to a zero-filled
	// bit-bucket page and continue (may introduce SDCs; ablation).
	Heuristic bool
	// InductionRecovery enables the Figure-11 extension: when the
	// scope check proves a kernel input contaminated, attempt to
	// reconstruct a corrupted induction variable from an affine sibling
	// before giving up. Off by default (the paper lists it as future
	// work).
	InductionRecovery bool
	// TraceCap is the span capacity of the safeguard's trace recorder
	// (0 = trace.DefaultSpanCap). Counters stay exact past the cap; only
	// per-span detail is dropped oldest-first.
	TraceCap int
	// Policy configures the escalating recovery chain (retry budgets,
	// storm detection, checkpoint rollback). The zero value is the
	// paper's one-shot behaviour.
	Policy Policy
}

// Trace counter names charged by the safeguard.
const (
	CounterActivations   = "safeguard.activations"
	CounterRecovered     = "safeguard.recovered"
	CounterUnrecoverable = "safeguard.unrecoverable"
	// CounterDetected counts SIGTRAP activations raised by a
	// detection-only defense (charged at handler entry, before the
	// escalation chain decides the activation's final outcome).
	CounterDetected      = "safeguard.detected"
	CounterRolledBack    = "safeguard.rolled-back"
	CounterDomainRewinds = "safeguard.domain-rewinds"
	CounterStorms        = "safeguard.storms"
	CounterIdleFootprint = "safeguard.idle-footprint-bytes"
	// CounterDomainRewindInconsistent counts rewinds refused by the
	// cross-domain consistency proofs (each one escalated instead).
	CounterDomainRewindInconsistent = "safeguard.domain-rewind.inconsistent"
	// CounterPeakRecovery is a high-water mark (Recorder.MaxCounter).
	CounterPeakRecovery = "safeguard.peak-recovery-bytes"
	// CounterMaxRollbacksBudget / CounterMaxDomainRewindsBudget surface
	// the *effective* escalation budgets (after zero-value defaulting)
	// into the trace. High-water marks, not additive: merging per-trial
	// traces must not sum identical budget values.
	CounterMaxRollbacksBudget     = "safeguard.policy.max-rollbacks"
	CounterMaxDomainRewindsBudget = "safeguard.policy.max-domain-rewinds"

	// Per-phase wall-time totals in nanoseconds. These duplicate the
	// phase spans in counter form so the Figure 9 ratio stays exact even
	// when a long run overflows the span ring.
	CounterDiagnoseNs     = "safeguard.diagnose-ns"
	CounterLoadNs         = "safeguard.load-ns"
	CounterFetchNs        = "safeguard.fetch-ns"
	CounterKernelNs       = "safeguard.kernel-ns"
	CounterPatchNs        = "safeguard.patch-ns"
	CounterDomainRewindNs = "safeguard.domain-rewind-ns"
	CounterRollbackNs     = "safeguard.rollback-ns"
)

// DomainRewindCounter names the per-domain rewind tally for d.
func DomainRewindCounter(d machine.DomainID) string {
	return "safeguard.domain-rewind." + d.String()
}

// PhaseNsCounters maps each activation-phase span kind to the additive
// counter holding its total wall time in nanoseconds.
var PhaseNsCounters = map[trace.Kind]string{
	trace.KindDiagnose:     CounterDiagnoseNs,
	trace.KindLoad:         CounterLoadNs,
	trace.KindFetch:        CounterFetchNs,
	trace.KindKernel:       CounterKernelNs,
	trace.KindPatch:        CounterPatchNs,
	trace.KindDomainRewind: CounterDomainRewindNs,
	trace.KindRollback:     CounterRollbackNs,
}

// Safeguard is the runtime attached to one process. All accounting —
// activation events with their phase timings, outcome tallies, the
// footprint figures — lives on its trace recorder; Stats and Events are
// views derived from it.
type Safeguard struct {
	cfg   Config
	units map[*machine.Image]*Unit
	rec   *trace.Recorder

	cachedTables map[*Unit]*rtable.Table
	cachedLibs   map[*Unit]*machine.Program
	bitBucket    machine.Word

	// store backs the domain-rewind and rollback stages (nil unless the
	// policy needs it); restores are counted on the trace against
	// Policy.MaxRollbacks.
	store *checkpoint.Store
	// pcTraps tracks per-PC trap pressure for the retry budget and the
	// recovery-storm detector.
	pcTraps map[machine.Word]*pcState
	// domainRewinds tallies rewinds per domain against
	// Policy.MaxDomainRewinds. Cumulative for the process lifetime —
	// deliberately not reset by a full rollback, so a domain that keeps
	// re-faulting cannot ping-pong between rewind and rollback forever.
	domainRewinds [machine.NumDomains]int
}

// Attach installs Safeguard as the process's SIGSEGV handler (the
// LD_PRELOAD constructor analogue) and returns it. Units list the
// protected images with their recovery data. When the policy restores
// (Policy.NeedsStore), Attach also creates the Safeguard's checkpoint
// store: it saves the CPU as attached (at _start, for a fresh process)
// and then once per new result value (checkpoint.AutoSave).
func Attach(cpu *machine.CPU, units []*Unit, cfg Config) *Safeguard {
	sg := &Safeguard{
		cfg:          cfg,
		units:        map[*machine.Image]*Unit{},
		rec:          trace.New(cfg.TraceCap),
		cachedTables: map[*Unit]*rtable.Table{},
		cachedLibs:   map[*Unit]*machine.Program{},
	}
	for _, u := range units {
		sg.units[u.Image] = u
		sg.rec.Add(CounterIdleFootprint, int64(len(u.TableBytes)+len(u.LibBytes)))
	}
	// Surface the effective (default-resolved) escalation budgets into
	// the trace so campaign reports can see what the chain was actually
	// allowed to do.
	if cfg.Policy.Rollback {
		sg.rec.Max(CounterMaxRollbacksBudget, int64(cfg.Policy.maxRollbacks()))
	}
	if cfg.Policy.DomainRewind {
		sg.rec.Max(CounterMaxDomainRewindsBudget, int64(cfg.Policy.maxDomainRewinds()))
	}
	if cfg.Policy.NeedsStore() {
		sg.store = checkpoint.NewStore()
		sg.store.Save(cpu, 0)
		checkpoint.AutoSave(sg.store, cpu)
	}
	cpu.Handler = sg.handle
	return sg
}

// Checkpoints returns the store the domain-rewind and rollback stages
// restore from, or nil when the policy needs none. Its trace holds the
// save and restore spans and the checkpoint I/O counters; campaign and
// cluster layers merge it beside Trace.
func (sg *Safeguard) Checkpoints() *checkpoint.Store { return sg.store }

// Trace exposes the safeguard's recorder: one activation span (with
// phase-timing child spans) per handled trap, plus the outcome and
// footprint counters. Campaign and cluster layers merge it into their
// own traces.
func (sg *Safeguard) Trace() *trace.Recorder { return sg.rec }

// noteRecoveryFootprint records the transient decode footprint of one
// repair.
func (sg *Safeguard) noteRecoveryFootprint(table *rtable.Table, lib *machine.Program) {
	n := 0
	if table != nil {
		for _, e := range table.Entries {
			n += 16 + len(e.Symbol) + len(e.Func)
			for _, p := range e.Params {
				n += len(p.Name) + 1
			}
		}
	}
	if lib != nil {
		n += len(lib.Code) * 64 // struct-encoded instructions
		n += len(lib.GlobalInit)
	}
	sg.rec.Max(CounterPeakRecovery, int64(n))
}

// record writes one resolved activation to the trace: the outcome
// counters, an activation span stamped at dyn on the virtual clock, and
// a child span per non-zero phase. Event is only transient scratch
// inside the handler; the trace is the ledger.
func (sg *Safeguard) record(dyn uint64, e Event) {
	sg.rec.Add(CounterActivations, 1)
	switch e.Outcome {
	case Recovered, RecoveredInduction:
		sg.rec.Add(CounterRecovered, 1)
	case RolledBack:
		sg.rec.Add(CounterRolledBack, 1)
	case DomainRewound:
		sg.rec.Add(CounterDomainRewinds, 1)
		sg.rec.Add(DomainRewindCounter(e.Domain), 1)
	default:
		sg.rec.Add(CounterUnrecoverable, 1)
	}
	act := sg.rec.Emit(trace.Span{
		Kind: trace.KindActivation, Parent: trace.NoParent,
		StartDyn: dyn, EndDyn: dyn,
		Wall: e.Total(), PC: uint64(e.PC), Addr: uint64(e.Addr),
		Outcome: string(e.Outcome),
	})
	for _, ph := range [...]struct {
		kind trace.Kind
		d    time.Duration
	}{
		{trace.KindDiagnose, e.Diagnose},
		{trace.KindLoad, e.Load},
		{trace.KindFetch, e.Fetch},
		{trace.KindKernel, e.Kernel},
		{trace.KindPatch, e.Patch},
		{trace.KindDomainRewind, e.DomainRewind},
		{trace.KindRollback, e.Rollback},
	} {
		if ph.d == 0 {
			continue
		}
		sg.rec.Add(PhaseNsCounters[ph.kind], ph.d.Nanoseconds())
		sp := trace.Span{
			Kind: ph.kind, Parent: act,
			StartDyn: dyn, EndDyn: dyn, Wall: ph.d,
		}
		if ph.kind == trace.KindDomainRewind {
			// The phase span names its domain (Val carries the DomainID),
			// so Events can round-trip the attribution.
			sp.Val = int64(e.Domain)
			sp.Outcome = e.Domain.String()
		}
		sg.rec.Emit(sp)
	}
}

// Events reconstructs the activation records from the trace, oldest
// first (the detail behind Stats; truncated to the recorder's span
// capacity when a very long run overflows the ring).
func (sg *Safeguard) Events() []Event {
	var events []Event
	byID := map[int32]int{}
	for _, s := range sg.rec.Spans() {
		switch s.Kind {
		case trace.KindActivation:
			byID[s.ID] = len(events)
			events = append(events, Event{
				PC: machine.Word(s.PC), Addr: machine.Word(s.Addr),
				Outcome: Outcome(s.Outcome),
			})
		case trace.KindDiagnose, trace.KindLoad, trace.KindFetch,
			trace.KindKernel, trace.KindPatch, trace.KindDomainRewind,
			trace.KindRollback:
			i, ok := byID[s.Parent]
			if !ok {
				continue // parent activation dropped from the ring
			}
			ev := &events[i]
			switch s.Kind {
			case trace.KindDiagnose:
				ev.Diagnose += s.Wall
			case trace.KindLoad:
				ev.Load += s.Wall
			case trace.KindFetch:
				ev.Fetch += s.Wall
			case trace.KindKernel:
				ev.Kernel += s.Wall
			case trace.KindPatch:
				ev.Patch += s.Wall
			case trace.KindDomainRewind:
				ev.DomainRewind += s.Wall
				ev.Domain = machine.DomainID(s.Val)
			case trace.KindRollback:
				ev.Rollback += s.Wall
			}
		}
	}
	return events
}

// Stats derives the aggregate view from the trace. The tallies come
// from counters (exact regardless of ring drops); Events carries the
// retained per-activation detail.
func (sg *Safeguard) Stats() Stats {
	return Stats{
		Activations:        int(sg.rec.Counter(CounterActivations)),
		Recovered:          int(sg.rec.Counter(CounterRecovered)),
		Unrecoverable:      int(sg.rec.Counter(CounterUnrecoverable)),
		RolledBack:         int(sg.rec.Counter(CounterRolledBack)),
		DomainRewinds:      int(sg.rec.Counter(CounterDomainRewinds)),
		Storms:             int(sg.rec.Counter(CounterStorms)),
		Events:             sg.Events(),
		IdleFootprintBytes: int(sg.rec.Counter(CounterIdleFootprint)),
		PeakRecoveryBytes:  int(sg.rec.MaxCounter(CounterPeakRecovery)),
	}
}

// handle is the signal handler (paper Algorithm 1, wrapped in the
// escalation chain: kernel recompute → induction repair → heuristic
// bit-bucket → domain rewind → checkpoint rollback → kill).
func (sg *Safeguard) handle(c *machine.CPU, t *machine.Trap) machine.TrapAction {
	ev := Event{PC: t.PC, Addr: t.Addr}
	if t.Sig == machine.SigTRAP {
		// A detection-only defense fired (care_detect). The check can
		// prove corruption but not repair it — no recovery-table entry,
		// no kernel — so skip the patch stages and enter the escalation
		// chain directly at its domain-rewind/rollback stages. Unless the
		// policy restores, this is a fail-stop kill.
		sg.rec.Add(CounterDetected, 1)
		ev.Outcome = DefenseDetected
		return sg.escalate(c, t, ev)
	}
	if t.Sig != machine.SigSEGV {
		ev.Outcome = WrongSignal
		sg.record(c.Dyn, ev)
		return machine.TrapKill
	}

	// Circuit breakers: when the retry budget or the storm detector
	// trips, patching at this PC has stopped making progress — skip the
	// patch stages entirely and escalate to rollback/kill.
	if skip, why := sg.noteTrap(c, t); skip {
		ev.Outcome = why
		return sg.escalate(c, t, ev)
	}

	// Phase 1: diagnose — map the faulting PC to a source key and a
	// recovery-table entry (dladdr + line table + MD5 + table lookup).
	t0 := time.Now()
	unit := sg.units[t.Img]
	var key debuginfo.Key
	var haveKey bool
	if unit != nil && t.Img != nil {
		key, haveKey = t.Img.Prog.Debug.KeyAt(t.Idx)
		if haveKey && key.Line == 0 && key.Col == 0 {
			haveKey = false // frame traffic carries no source key
		}
	}
	if !haveKey {
		ev.Diagnose = time.Since(t0)
		ev.Outcome = NoDebugKey
		return sg.fail(c, t, ev)
	}
	table, err := sg.loadTable(unit)
	if err != nil {
		ev.Diagnose = time.Since(t0)
		ev.Outcome = NoKernel
		return sg.fail(c, t, ev)
	}
	entry, ok := table.LookupSource(key)
	ev.Diagnose = time.Since(t0)
	if !ok {
		ev.Outcome = NoKernel
		return sg.fail(c, t, ev)
	}

	// Phase 2: load the recovery library (dlopen analogue).
	t1 := time.Now()
	lib, err := sg.loadLib(unit)
	ev.Load = time.Since(t1)
	if err != nil {
		ev.Outcome = NoKernel
		return sg.fail(c, t, ev)
	}
	sg.noteRecoveryFootprint(table, lib)

	// Phase 3: fetch kernel arguments from the stalled process using
	// the DW_AT_location-style loclists.
	t2 := time.Now()
	args, argOK := sg.fetchParams(c, t, entry)
	ev.Fetch = time.Since(t2)
	if !argOK {
		ev.Outcome = ParamUnavailable
		return sg.fail(c, t, ev)
	}

	// Phase 4: execute the kernel against live process memory.
	t3 := time.Now()
	addr, kerr := sg.runKernel(c, lib, entry.Symbol, args)
	ev.Kernel = time.Since(t3)
	if kerr != nil {
		ev.Outcome = KernelFault
		return sg.fail(c, t, ev)
	}

	// Phase 5: coverage-scope check + operand patch. If the kernel
	// recomputes the very address that faulted, its inputs were
	// contaminated: repairing would just re-execute the same wild
	// access, so CARE declares the fault unrecoverable instead of
	// risking an SDC.
	t4 := time.Now()
	if addr == t.Addr {
		// The kernel's inputs were contaminated. The Figure-11
		// extension can still reconstruct a corrupted induction
		// variable from an intact sibling.
		if sg.cfg.InductionRecovery {
			if addr2, ok := sg.tryInductionRecovery(c, t, entry, lib, args); ok {
				sg.patch(c, t, addr2)
				ev.Patch = time.Since(t4)
				ev.Outcome = RecoveredInduction
				sg.record(c.Dyn, ev)
				sg.release()
				return machine.TrapResume
			}
		}
		ev.Patch = time.Since(t4)
		ev.Outcome = OutOfScope
		return sg.fail(c, t, ev)
	}
	sg.patch(c, t, addr)
	ev.Patch = time.Since(t4)
	ev.Outcome = Recovered
	sg.record(c.Dyn, ev)
	sg.release()
	return machine.TrapResume
}

// fail continues the chain after an in-place repair stage failed: the
// heuristic bit-bucket stage, then escalation (rollback/kill).
func (sg *Safeguard) fail(c *machine.CPU, t *machine.Trap, ev Event) machine.TrapAction {
	if sg.cfg.Heuristic && t.Instr != nil && t.Instr.Op.IsMemAccess() {
		if sg.heuristicPatch(c, t) {
			ev.Outcome = HeuristicPatched
			sg.record(c.Dyn, ev)
			// Release per-fault state on this resume path too;
			// otherwise the decoded table and recovery library stay
			// resident in non-Eager mode and skew the footprint
			// accounting.
			sg.release()
			return machine.TrapResume
		}
	}
	return sg.escalate(c, t, ev)
}

// loadTable decodes the unit's recovery table. The decode is cached so
// the stages of one activation share it; release drops it again in
// non-Eager mode once the activation resolves.
func (sg *Safeguard) loadTable(u *Unit) (*rtable.Table, error) {
	if tb := sg.cachedTables[u]; tb != nil {
		return tb, nil
	}
	tb, err := rtable.Decode(u.TableBytes)
	if err != nil {
		return nil, err
	}
	sg.cachedTables[u] = tb
	return tb, nil
}

// loadLib decodes the unit's recovery library (cached like loadTable).
func (sg *Safeguard) loadLib(u *Unit) (*machine.Program, error) {
	if p := sg.cachedLibs[u]; p != nil {
		return p, nil
	}
	p, err := machine.DecodeProgram(u.LibBytes)
	if err != nil {
		return nil, err
	}
	sg.cachedLibs[u] = p
	return p, nil
}

// release drops per-fault state in lazy mode (the paper frees the
// library right after each repair to keep the footprint fixed).
func (sg *Safeguard) release() {
	if !sg.cfg.Eager {
		for k := range sg.cachedTables {
			delete(sg.cachedTables, k)
		}
		for k := range sg.cachedLibs {
			delete(sg.cachedLibs, k)
		}
	}
}

// fetchParams retrieves the kernel arguments from the trapped context.
func (sg *Safeguard) fetchParams(c *machine.CPU, t *machine.Trap, e *rtable.Entry) ([]machine.Word, bool) {
	dbg := t.Img.Prog.Debug
	args := make([]machine.Word, 0, len(e.Params))
	for _, p := range e.Params {
		loc, ok := dbg.Lookup(e.Func, p.Name, t.Idx)
		if !ok {
			return nil, false
		}
		switch loc.Kind {
		case debuginfo.LocReg:
			args = append(args, c.R[loc.Reg])
		case debuginfo.LocFReg:
			args = append(args, math.Float64bits(c.F[loc.Reg]))
		case debuginfo.LocFPOff:
			v, f := c.Mem.Read(c.R[machine.FP] + machine.Word(loc.Off))
			if f != nil {
				return nil, false
			}
			args = append(args, v)
		default:
			return nil, false
		}
	}
	return args, true
}

// retSentinel is the fake return address pushed under a kernel call. No
// image maps it, so the kernel's return ends its run with a SIGILL fetch
// trap at exactly this PC.
const retSentinel machine.Word = 0x0000_7eee_0000_0000

// maxKernelSteps bounds recovery-kernel execution.
const maxKernelSteps = 1 << 20

// runKernel executes a recovery kernel on a scratch CPU sharing the
// process's memory (signal-handler-on-altstack semantics). It returns
// the recomputed effective address, the kernel's R0 when it returns to
// retSentinel; the SIGILL fetch trap there is the only trap that counts
// as a return, and any other end (another trap, an exit, the step
// budget) is an error. The kernel runs on the Step loop whatever the
// process's tier: it is a handful of instructions, not worth
// predecoding its whole library.
func (sg *Safeguard) runKernel(c *machine.CPU, lib *machine.Program, symbol string, args []machine.Word) (machine.Word, error) {
	entry, ok := lib.FuncEntry(symbol)
	if !ok {
		return 0, fmt.Errorf("safeguard: kernel symbol %q not found", symbol)
	}
	// Probe the address space instead of trusting a flag: a checkpoint
	// rollback can restore a memory image from either side of the first
	// mapping, so the scratch stack may or may not exist by now.
	scratchBase := machine.ScratchStackTop - machine.ScratchStackSize
	if c.Mem.Find(scratchBase) == nil {
		if _, err := c.Mem.Map(scratchBase, machine.ScratchStackSize, "sigaltstack"); err != nil {
			return 0, err
		}
	}
	libImg, err := machine.Load(c.Mem, lib)
	if err != nil {
		return 0, err
	}
	defer libImg.Unload(c.Mem)

	sub := machine.NewCPU(c.Mem, hostenv.NewEnv())
	// The kernel may call back into simple application functions, so
	// the whole process image list is visible.
	sub.Images = append(append([]*machine.Image{}, c.Images...), libImg)
	sub.R[machine.SP] = machine.ScratchStackTop
	sub.R[machine.FP] = machine.ScratchStackTop
	for _, a := range args {
		sub.R[machine.SP] -= 8
		if f := c.Mem.Write(sub.R[machine.SP], a); f != nil {
			return 0, f
		}
	}
	sub.R[machine.SP] -= 8
	if f := c.Mem.Write(sub.R[machine.SP], retSentinel); f != nil {
		return 0, f
	}
	sub.PC = entry
	sub.Tier = machine.TierStep
	if sub.Run(maxKernelSteps) != machine.StatusTrapped {
		return 0, fmt.Errorf("safeguard: kernel did not return (%v)", sub.Status)
	}
	if t := sub.PendingTrap; t.Sig != machine.SigILL || t.PC != retSentinel {
		return 0, t
	}
	return sub.R[machine.R0], nil
}

// patch updates the faulting instruction's memory operand so that its
// effective address becomes addr. Following the paper's §3.4 rule, the
// index register is updated by default (it is recomputed more often and
// thus more likely corrupted); the base register is the fallback when
// the delta is not scale-divisible, or the default in PatchBase mode.
func (sg *Safeguard) patch(c *machine.CPU, t *machine.Trap, addr machine.Word) {
	mo, ok := machine.DecodeMemOperand(t.Instr)
	if !ok {
		return
	}
	if mo.Index != machine.NoReg && !sg.cfg.PatchBase {
		delta := int64(addr - c.R[mo.Base] - machine.Word(mo.Disp))
		if mo.Scale != 0 && delta%int64(mo.Scale) == 0 {
			c.R[mo.Index] = machine.Word(delta / int64(mo.Scale))
			return
		}
	}
	if mo.Index != machine.NoReg {
		c.R[mo.Base] = addr - c.R[mo.Index]*machine.Word(mo.Scale) - machine.Word(mo.Disp)
		return
	}
	c.R[mo.Base] = addr - machine.Word(mo.Disp)
}

// heuristicPatch redirects an unrecoverable access to a zero-filled
// bit-bucket page and resumes — the LetGo-style strategy the paper
// compares against, which trades crashes for potential SDCs.
func (sg *Safeguard) heuristicPatch(c *machine.CPU, t *machine.Trap) bool {
	if sg.bitBucket == 0 {
		b, err := c.Mem.Alloc(4096)
		if err != nil {
			return false
		}
		sg.bitBucket = b
	}
	mo, ok := machine.DecodeMemOperand(t.Instr)
	if !ok {
		return false
	}
	if mo.Index != machine.NoReg {
		c.R[mo.Index] = 0
	}
	c.R[mo.Base] = sg.bitBucket - machine.Word(mo.Disp)
	return true
}
