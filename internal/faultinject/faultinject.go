// Package faultinject implements the paper's two fault-injection
// methodologies:
//
//   - the §2 manifestation study: flip a bit in the destination operand
//     of a uniformly random dynamic instruction, track the outcome
//     (benign / soft failure / SDC / hang), the crash symptom, and the
//     manifestation latency in dynamic instructions (Tables 2, 3, 4,
//     and the appendix Tables 10, 11);
//   - the §5 evaluation: select a static application instruction
//     weighted by its profiled execution count plus a uniform occurrence
//     index, keep the injections that raise SIGSEGV, and measure how
//     many Safeguard recovers and how fast (Figures 7, 9, 12; Table 9).
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"care/internal/core"
	"care/internal/machine"
	"care/internal/parallel"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/store"
	"care/internal/taint"
	"care/internal/trace"
)

// Model selects the bit-flip fault model.
type Model int

// Fault models.
const (
	// SingleBit flips one uniformly random bit (the paper's primary,
	// conservative model).
	SingleBit Model = iota
	// DoubleBit flips two distinct random bits (the appendix model).
	DoubleBit
)

// String names the model.
func (m Model) String() string {
	if m == DoubleBit {
		return "double-bit-flip"
	}
	return "single-bit-flip"
}

// Outcome classifies an injection (Table 2 columns).
type Outcome int

// Injection outcomes.
const (
	// Benign: the program completed with golden output.
	Benign Outcome = iota
	// SoftFailure: the program crashed with a hardware trap.
	SoftFailure
	// SDC: the program completed but its output differs.
	SDC
	// Hang: the program exceeded its step budget.
	Hang
)

var outcomeNames = [...]string{"Benign", "SoftFailure", "SDC", "Hang"}

// String names the outcome; out-of-range values render as "unknown(N)"
// instead of panicking.
func (o Outcome) String() string {
	if o >= 0 && int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("unknown(%d)", int(o))
}

// allOutcomes enumerates the outcome classes (counter derivation).
var allOutcomes = [...]Outcome{Benign, SoftFailure, SDC, Hang}

// allSignals enumerates the crash-symptom classes. SIGTRAP is the
// deterministic detection trap of a detection-only defense pass
// (fail-stop when no checkpoint store is wired).
var allSignals = [...]machine.Signal{
	machine.SigSEGV, machine.SigBUS, machine.SigFPE,
	machine.SigABRT, machine.SigILL, machine.SigTRAP,
}

// allDests enumerates the destination-operand classes.
var allDests = [...]machine.DestKind{
	machine.DestIntReg, machine.DestFloatReg, machine.DestMemory,
}

// Trace counter names charged per campaign trial. The merged campaign
// trace carries one of each per observation; the CampaignResult maps
// are derived from them.
func outcomeCounter(o Outcome) string { return "campaign.outcome." + o.String() }
func symptomCounter(s machine.Signal) string {
	return "campaign.symptom." + s.String()
}
func destCounter(k machine.DestKind, o Outcome) string {
	return "campaign.dest." + DestName(k) + "." + o.String()
}
func domainCounter(d machine.DomainID) string {
	return "campaign.domain." + d.String()
}

// FaultPoint records one armed fault of a multi-fault trial.
type FaultPoint struct {
	// TargetDyn is the dynamic instruction the fault was armed for.
	TargetDyn uint64
	// Bits lists the flipped bit positions.
	Bits []int
	// Fired reports whether the flip landed; Dyn is the retirement
	// count at which it did.
	Fired bool
	Dyn   uint64
}

// Injection describes one performed injection and its result. Under
// the multi-fault model (Campaign.FaultsPerTrial > 1) the top-level
// target/bits/destination fields describe the *last fired* fault — the
// proximate corruption the latency is measured from — and Faults lists
// every armed fault of the trial.
type Injection struct {
	// TargetDyn is the dynamic instruction index after which the flip
	// was applied.
	TargetDyn uint64
	// Image and StaticIdx identify the corrupted instruction.
	Image     string
	StaticIdx int
	// Bits lists the flipped bit positions.
	Bits []int
	// Dest is the corrupted destination kind.
	Dest machine.DestKind
	// Faults lists every armed fault of a multi-fault trial (only
	// populated when the campaign arms more than one fault per trial).
	Faults []FaultPoint

	Outcome Outcome
	// Signal is the crash symptom for SoftFailure.
	Signal machine.Signal
	// Latency is the dynamic-instruction distance from injection to
	// crash (SoftFailure only).
	Latency uint64
	// PropagationWrites counts tainted destination writes between the
	// injection and the end of the run (only when the campaign enables
	// TrackPropagation — the §2 trace analysis).
	PropagationWrites int
	// TaintedMemWords is the contaminated-memory footprint at the end.
	TaintedMemWords int
}

// corrupt flips the chosen bits in the destination operand of the
// just-retired instruction — "the fault is injected at the point right
// after the instruction is executed" (§2.1.1).
func corrupt(c *machine.CPU, in *machine.MInstr, bits []int) (machine.DestKind, bool) {
	kind, ok := in.HasDest()
	if !ok {
		return 0, false
	}
	var mask machine.Word
	for _, b := range bits {
		mask |= 1 << uint(b)
	}
	switch kind {
	case machine.DestIntReg:
		rd := in.Rd
		if in.Op == machine.MHost {
			rd = machine.R0
		}
		c.R[rd] ^= mask
	case machine.DestFloatReg:
		c.F[in.Fd] = math.Float64frombits(math.Float64bits(c.F[in.Fd]) ^ mask)
	case machine.DestMemory:
		var addr machine.Word
		switch in.Op {
		case machine.MStore, machine.MFStore:
			addr = in.EffectiveAddr(&c.R)
		case machine.MPush, machine.MFPush:
			addr = c.R[machine.SP]
		}
		v, f := c.Mem.Read(addr)
		if f != nil {
			return kind, false
		}
		if f := c.Mem.Write(addr, v^mask); f != nil {
			return kind, false
		}
	}
	return kind, true
}

// Armed reports one armed fault: whether it fired, and where. If the
// triggering instruction has no destination, the next instruction with
// one is corrupted.
type Armed struct {
	Fired     bool
	Dyn       uint64
	Image     string
	StaticIdx int
	Dest      machine.DestKind
	// OnFire, when set before the run, is invoked right after the
	// corruption is applied (the taint tracker seeds there).
	OnFire func(c *machine.CPU, in *machine.MInstr)
}

// TriggerKind selects how the injection point is specified.
type Trigger struct {
	// AtDyn fires after the AtDyn'th dynamic instruction retires
	// (1-based) when >0.
	AtDyn uint64
	// Image/StaticIdx/Occurrence fire after the instruction at
	// StaticIdx of the named image retires for the Occurrence'th time
	// (1-based), when Image != "".
	Image      string
	StaticIdx  int
	Occurrence uint64
}

// ArmSpec pairs a trigger with the bit positions to flip — one fault of
// a (possibly multi-fault) injection plan.
type ArmSpec struct {
	Trigger Trigger
	Bits    []int
}

// Arm installs a single injection hook on the CPU: after the
// instruction matching the trigger retires, flip the given bits in its
// destination.
func Arm(cpu *machine.CPU, trig Trigger, bits []int) *Armed {
	return ArmAll(cpu, []ArmSpec{{Trigger: trig, Bits: bits}})[0]
}

// ArmAll arms several independent faults on one CPU through a single
// retire hook (the multi-fault model: K transient upsets per run).
// Specs fire independently, in spec order when several trigger on the
// same retirement. The hook composes with other retire hooks via
// machine.AddAfterStep and stays installed until every spec has fired —
// a fired fault never re-fires (a transient upset happens once), while
// unfired faults remain armed even if a checkpoint rollback rewinds the
// dynamic-instruction clock past their trigger.
func ArmAll(cpu *machine.CPU, specs []ArmSpec) []*Armed {
	return armAllSeeded(cpu, specs, nil)
}

// armAllSeeded is ArmAll with pre-seeded occurrence counters: a
// warm-started process resumes mid-run, so the retire hook never sees
// the skipped prefix's retirements and seed[si] must carry how many
// times spec si's static instruction already retired in it. A nil seed
// is the cold start. The states backing is allocated as one block and
// the occurrence counters only when some spec needs them (the campaign
// hot path is all AtDyn triggers).
func armAllSeeded(cpu *machine.CPU, specs []ArmSpec, seed []uint64) []*Armed {
	backing := make([]Armed, len(specs))
	states := make([]*Armed, len(specs))
	for i := range states {
		states[i] = &backing[i]
	}
	if len(specs) == 0 {
		return states
	}
	var occ []uint64
	for i := range specs {
		if specs[i].Trigger.AtDyn == 0 {
			occ = make([]uint64, len(specs))
			copy(occ, seed)
			break
		}
	}
	live := len(specs)
	var remove func()
	remove = cpu.AddAfterStep(func(c *machine.CPU, img *machine.Image, idx int, in *machine.MInstr) {
		for si := range specs {
			st := states[si]
			if st.Fired {
				continue
			}
			trig := specs[si].Trigger
			triggered := false
			if trig.AtDyn > 0 {
				triggered = c.Dyn >= trig.AtDyn
			} else {
				if img.Prog.Name == trig.Image && idx == trig.StaticIdx {
					occ[si]++
				}
				triggered = occ[si] >= trig.Occurrence && occ[si] > 0
			}
			if !triggered {
				continue
			}
			kind, ok := corrupt(c, in, specs[si].Bits)
			if !ok {
				continue // no destination; try the next retiring instruction
			}
			st.Fired = true
			st.Dyn = c.Dyn
			st.Image = img.Prog.Name
			st.StaticIdx = idx
			st.Dest = kind
			live--
			if st.OnFire != nil {
				st.OnFire(c, in)
			}
		}
		if live == 0 {
			remove()
		}
	})
	return states
}

// pickBits draws the flip positions for the model.
func pickBits(rng *rand.Rand, model Model) []int {
	b0 := rng.Intn(64)
	if model == SingleBit {
		return []int{b0}
	}
	b1 := rng.Intn(63)
	if b1 >= b0 {
		b1++
	}
	return []int{b0, b1}
}

// Campaign is a §2-style manifestation study over one binary.
type Campaign struct {
	// App is an unprotected build of the workload.
	App *core.Binary
	// Libs are linked library binaries (optional).
	Libs []*core.Binary
	// N is the number of injections (one per run).
	N int
	// FaultsPerTrial is the multi-fault model: every trial arms this
	// many independent faults, each with its own uniformly random
	// dynamic target and bit choice drawn from the trial's RNG stream
	// (so campaigns stay bit-identical across worker counts). <=1 means
	// the paper's single-fault-per-run model.
	FaultsPerTrial int
	// Model selects single or double bit flips.
	Model Model
	// Seed drives all randomness.
	Seed int64
	// HangFactor multiplies the golden instruction count for the hang
	// budget (default 4).
	HangFactor uint64
	// TrackPropagation attaches a taint tracker to every injected run,
	// reproducing the paper's §2 fault-propagation trace analysis
	// (slower: every instruction pays the shadow-state update).
	TrackPropagation bool
	// Workers is the number of goroutines running trials concurrently;
	// <=0 means one per available CPU. Each trial derives its own RNG
	// from (Seed, trial index), so the CampaignResult is identical for
	// every worker count.
	Workers int
	// Trace additionally wires each trial CPU's trap stamps into the
	// per-trial trace (machine.CPU.Trace). The trial counters and the
	// per-trial summary span are always recorded; this only adds the
	// machine-level trap detail, at a small per-trap cost. The merged
	// trace stays bit-identical across worker counts either way.
	Trace bool
	// WarmStart clones each trial from the latest golden-run snapshot
	// strictly before its earliest injection target instead of
	// re-executing the shared prefix from _start. The campaign result —
	// including the exported trace JSONL — is bit-identical to a cold
	// campaign for every worker count (the skipped prefix is
	// deterministic and fault-free); only CampaignResult.WarmStart,
	// which lives beside the trace, records the shortcut.
	WarmStart bool
	// SnapEvery is the snapshot cadence in retired instructions
	// (warm-start only). 0 picks TotalDyn/64+1: at most 64 snapshots,
	// bounding the frozen-image memory while capping the re-executed
	// prefix at ~1/64 of the run per trial.
	SnapEvery uint64
	// Tier selects the interpreter tier every trial runs on
	// (superblock, block or step; the zero value is the fused
	// superblock default). The campaign result — including the
	// exported trace JSONL — is bit-identical on every tier; the CI
	// smoke diffs them.
	Tier machine.InterpTier
	// Domains attributes each memory-symptom soft failure (SIGSEGV or
	// SIGBUS) to the isolation domain of its faulting address,
	// populating CampaignResult.ByDomain — the crash-geography view the
	// domain-rewind policy acts on.
	Domains bool
	// Protected attaches the Safeguard runtime to every trial process,
	// so defended binaries (CARE repair, PRESAGE/SFI detection) run
	// their recovery machinery under injection. Each trial merges the
	// safeguard's own trace — activation spans plus the
	// recovered/detected/unrecoverable counters — into its recorder, so
	// the campaign trace stays bit-identical across worker counts.
	Protected bool
	// Safeguard tunes the attached runtime (zero value = the paper's
	// one-shot configuration; Protected only).
	Safeguard safeguard.Config
	// Shards spreads the trial index space over this many shards of the
	// internal/shard coordinator — worker subprocesses (ShardExec) or
	// in-process runners — which pull chunks of trials as they go idle;
	// results merge in trial-index order, so the result is
	// byte-identical to a single-process run.
	// Campaign.Run itself always runs single-process; callers route
	// Shards > 1 campaigns through shard.RunCampaign (the CLIs and
	// experiments do). <=1 means no sharding.
	Shards int
	// ShardExec is the worker argv for subprocess shards (e.g.
	// {"care-inject", "-shard-serve"}); empty means in-process shards.
	// Read by the shard coordinator, ignored by Run.
	ShardExec []string
	// Progress, when non-nil, is invoked after every completed trial
	// with (done, total) for the range being run. It may be called
	// concurrently from worker goroutines and must not touch the trial
	// results; it exists only for heartbeat reporting and never alters
	// the campaign outcome or trace.
	Progress func(done, total int)
	// Store, when non-nil, caches the golden-run profile (and its
	// warm-start snapshots) under StoreKey: Prepare consults the store
	// first and a verified hit skips both golden passes entirely; a
	// miss runs cold and populates the entry. Corruption degrades to
	// the cold path (the store charges its own fallback counter) — the
	// campaign result, including the exported trace JSONL, is
	// byte-identical with the store on, off, cold, or cache-hit.
	Store *store.Store
	// StoreKey identifies this campaign's cache entry; it must pin
	// every input the golden run depends on (workload, build options,
	// defenses) plus the snapshot cadence. Ignored when Store is nil or
	// the key's Workload is empty (an unkeyed campaign never touches
	// the index).
	StoreKey store.Key
}

// WarmStartStats accounts for the work a warm-started campaign skipped.
// It deliberately lives on the CampaignResult rather than the trace:
// WriteJSONL exports every counter, and the warm-start contract is that
// warm and cold trace exports diff byte-for-byte clean. The CLI surfaces
// SkippedDyn as the campaign.warmstart.skipped-dyn figure on stderr.
type WarmStartStats struct {
	// Snapshots is how many golden-run snapshots were captured.
	Snapshots int
	// WarmTrials counts trials that cloned a snapshot (the rest had an
	// injection target before the first snapshot and started cold).
	WarmTrials int
	// SkippedDyn totals the golden-prefix instructions the warm trials
	// did not re-execute (the campaign.warmstart.skipped-dyn counter).
	SkippedDyn uint64
}

// CampaignResult aggregates a campaign (Tables 2-4 rows).
type CampaignResult struct {
	Workload string
	Model    Model
	N        int
	// Outcomes, Symptoms, Latencies and ByDest are derived from the
	// merged trace (counters and per-trial spans), not tallied
	// separately; see runProfiled.
	Outcomes   map[Outcome]int
	Symptoms   map[machine.Signal]int
	Latencies  []uint64
	Injections []Injection
	GoldenDyn  uint64
	// ByDest breaks outcomes down by the corrupted destination kind —
	// the paper's §2.1.2 observation that FPU faults skew to SDCs while
	// ALU (integer/address) faults skew to soft failures.
	ByDest map[machine.DestKind]map[Outcome]int
	// ByDomain attributes memory-symptom soft failures to the isolation
	// domain of the faulting address (Campaign.Domains only).
	ByDomain map[machine.DomainID]int
	// Trace is the per-trial recorders merged in trial-index order, with
	// Rank carrying the trial index: one KindTrial span per trial (plus
	// KindTrap stamps when Campaign.Trace is set) and the outcome /
	// symptom / destination counters. Every field in it is derived from
	// the deterministic virtual clock, so it is bit-identical for every
	// worker count.
	Trace *trace.Recorder
	// WarmStart accounts for the skipped golden-prefix work (nil unless
	// the campaign ran with Campaign.WarmStart). It is the one field a
	// warm/cold equivalence comparison must scrub; see WarmStartStats
	// for why it is not a trace counter.
	WarmStart *WarmStartStats
}

// destName names a destination kind for reports.
func DestName(k machine.DestKind) string {
	switch k {
	case machine.DestIntReg:
		return "ALU(int)"
	case machine.DestFloatReg:
		return "FPU(float)"
	case machine.DestMemory:
		return "memory"
	}
	return "?"
}

// LatencyBuckets returns the Table 4 distribution: counts of soft
// failures manifesting within <=10, 11-50, 51-400 and >400 dynamic
// instructions.
func (r *CampaignResult) LatencyBuckets() [4]int {
	var b [4]int
	for _, l := range r.Latencies {
		switch {
		case l <= 10:
			b[0]++
		case l <= 50:
			b[1]++
		case l <= 400:
			b[2]++
		default:
			b[3]++
		}
	}
	return b
}

// TrialResult is the outcome of one campaign trial — the unit the
// ordered merge consumes and the shard coordinator ships between
// processes. Every field is derived from the trial's deterministic
// virtual clock, so a TrialResult is identical wherever the trial ran.
type TrialResult struct {
	// Index is the trial's position in the campaign's [0, N) index
	// space; MergeResults consumes results in Index order.
	Index int
	// Inj is the injection record.
	Inj Injection
	// Fired reports whether any armed flip actually landed; latency and
	// symptom statistics are only meaningful for fired trials.
	Fired bool
	// SkippedDyn is the golden-prefix length the trial warm-started
	// past (0 for a cold trial).
	SkippedDyn uint64
	// Rec is the trial's recorder: outcome/symptom/destination counters
	// plus a KindTrial summary span (and trap stamps when Campaign.Trace
	// is set). Merged into the campaign trace in trial-index order.
	Rec *trace.Recorder
}

// runTrial executes the i'th injection of the campaign against a fresh
// process. All randomness comes from a trial-local RNG derived from
// (c.Seed, i), so trials are independent and may run concurrently.
func (c *Campaign) runTrial(i int, prof *profiler.Profile, hang uint64) (TrialResult, error) {
	rng := rand.New(rand.NewSource(TrialSeed(c.Seed, uint64(i))))
	k := c.FaultsPerTrial
	if k <= 0 {
		k = 1
	}
	specs := make([]ArmSpec, k)
	for j := range specs {
		target := uint64(rng.Int63n(int64(prof.TotalDyn))) + 1
		specs[j] = ArmSpec{Trigger: Trigger{AtDyn: target}, Bits: pickBits(rng, c.Model)}
	}
	// Warm start: resume from the latest golden snapshot strictly before
	// the earliest armed target. Everything up to that target is the
	// deterministic fault-free golden prefix, so the resumed process is
	// bit-identical to a cold one at the moment the first fault can fire.
	var snap *profiler.SnapPoint
	if len(prof.Snaps) > 0 {
		minTarget := specs[0].Trigger.AtDyn
		for _, s := range specs[1:] {
			if s.Trigger.AtDyn < minTarget {
				minTarget = s.Trigger.AtDyn
			}
		}
		snap = prof.NearestSnap(minTarget)
	}
	cfg := core.ProcessConfig{
		App: c.App, Libs: c.Libs, Tier: c.Tier,
		Protected: c.Protected, Safeguard: c.Safeguard,
	}
	var p *core.Process
	var err error
	if snap != nil {
		p, err = core.NewProcessFromSnapshot(cfg, snap.State)
	} else {
		p, err = core.NewProcess(cfg)
	}
	if err != nil {
		return TrialResult{}, err
	}
	// An unprotected campaign trial emits at most one trap stamp (the
	// process dies at its first trap) plus the summary span; a 4-slot
	// ring never drops and keeps the per-trial footprint small. A
	// protected trial additionally absorbs the safeguard's activation
	// and phase spans, so it gets a deeper ring.
	capSpans := 4
	if c.Protected {
		capSpans = 256
	}
	rec := trace.New(capSpans)
	if c.Trace {
		p.CPU.Trace = rec
	}
	armed := ArmAll(p.CPU, specs)
	var tracker *taint.Tracker
	if c.TrackPropagation {
		tracker = taint.Attach(p.CPU)
		for _, st := range armed {
			st.OnFire = func(cc *machine.CPU, in *machine.MInstr) {
				tracker.MarkDest(cc, in)
			}
		}
	}
	// The budget is shared with the skipped prefix: in the golden prefix
	// every step retires, so a cold trial reaching the snapshot point has
	// spent exactly snap.Dyn of its budget. Charging it here keeps the
	// Hang classification bit-identical between warm and cold runs.
	limit := hang * prof.TotalDyn
	var skipped uint64
	if snap != nil {
		skipped = snap.Dyn
		limit -= skipped
	}
	status := p.Run(limit)
	// Fold the safeguard's private trace (activations, phase spans, the
	// recovered/detected counters) into the trial recorder so campaign
	// merges see recovery outcomes alongside injection outcomes.
	if p.SG != nil {
		rec.Merge(p.SG.Trace())
	}
	// last is the most recently fired fault — the proximate corruption
	// the manifestation latency is measured from.
	var last *Armed
	lastIdx := -1
	for j, st := range armed {
		if st.Fired && (last == nil || st.Dyn >= last.Dyn) {
			last, lastIdx = st, j
		}
	}
	inj := Injection{TargetDyn: specs[0].Trigger.AtDyn, Bits: specs[0].Bits}
	if k > 1 {
		inj.Faults = make([]FaultPoint, k)
		for j := range specs {
			inj.Faults[j] = FaultPoint{
				TargetDyn: specs[j].Trigger.AtDyn,
				Bits:      specs[j].Bits,
				Fired:     armed[j].Fired,
				Dyn:       armed[j].Dyn,
			}
		}
	}
	if tracker != nil {
		inj.PropagationWrites = tracker.TaintedWrites
		inj.TaintedMemWords = tracker.TaintedMemWords()
	}
	if last != nil {
		inj.TargetDyn, inj.Bits = specs[lastIdx].Trigger.AtDyn, specs[lastIdx].Bits
		inj.Image, inj.StaticIdx, inj.Dest = last.Image, last.StaticIdx, last.Dest
	}
	switch status {
	case machine.StatusTrapped:
		inj.Outcome = SoftFailure
		inj.Signal = p.CPU.PendingTrap.Sig
		if last != nil {
			inj.Latency = p.CPU.Dyn - last.Dyn
		}
	case machine.StatusExited:
		if sameResults(p.Results(), prof.Golden) && p.CPU.ExitCode == prof.ExitCode {
			inj.Outcome = Benign
		} else {
			inj.Outcome = SDC
		}
	case machine.StatusLimit:
		inj.Outcome = Hang
	default:
		return TrialResult{}, fmt.Errorf("faultinject: unexpected run status %v", status)
	}
	fired := last != nil
	// Charge the trial's observations to its trace. All values are on
	// the deterministic virtual clock (no wall time), so merged campaign
	// traces compare bit-identically across worker counts.
	rec.Add(outcomeCounter(inj.Outcome), 1)
	if inj.Outcome == SoftFailure && fired {
		rec.Add(symptomCounter(inj.Signal), 1)
		if c.Domains && (inj.Signal == machine.SigSEGV || inj.Signal == machine.SigBUS) {
			rec.Add(domainCounter(p.CPU.Mem.FaultDomain(p.CPU.PendingTrap.Addr)), 1)
		}
	}
	if fired {
		rec.Add(destCounter(inj.Dest, inj.Outcome), 1)
	}
	var startDyn uint64
	var nFired int64
	for _, st := range armed {
		if st.Fired {
			nFired++
		}
	}
	if last != nil {
		startDyn = last.Dyn
	}
	rec.Emit(trace.Span{
		Kind: trace.KindTrial, Parent: trace.NoParent,
		StartDyn: startDyn, EndDyn: p.CPU.Dyn,
		Outcome: inj.Outcome.String(), Val: nFired,
	})
	return TrialResult{Index: i, Inj: inj, Fired: fired, Rec: rec, SkippedDyn: skipped}, nil
}

// Run executes the campaign: N independent trials on a pool of Workers
// goroutines, merged in trial-index order so the result is identical
// for every worker count (including Workers=1).
func (c *Campaign) Run() (*CampaignResult, error) {
	prof, err := c.Prepare()
	if err != nil {
		return nil, err
	}
	return c.runProfiled(prof)
}

// Prepare validates the campaign and performs its golden pass (plus the
// warm-start snapshot pass when enabled), returning the profile trials
// run against. Run calls it implicitly; every shard worker calls it
// too, so a sharded campaign's processes all derive the same profile
// (or load it from a shared store) without shipping it.
func (c *Campaign) Prepare() (*profiler.Profile, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("faultinject: campaign N must be positive")
	}
	return prepareProfile(c.App, c.Libs, c.Store, c.StoreKey, c.WarmStart, c.SnapEvery)
}

// prepareProfile is the golden pass Campaign.Prepare and
// CoverageExperiment.Prepare share. A verified store hit under the
// effective key skips it entirely. Otherwise the golden run profiles
// the binary; a warm start adds a second pass that captures snapshots
// every snapEvery retirements (0 = TotalDyn/64+1), taken from a
// separate run so the profiling pass stays identical to a cold one's;
// and the fresh profile populates the store. A corrupt entry charges
// store.fallback inside the store and degrades to the same cold path.
func prepareProfile(app *core.Binary, libs []*core.Binary, st *store.Store, key store.Key, warm bool, snapEvery uint64) (*profiler.Profile, error) {
	// Pin the snapshot cadence onto the key from the campaign's own
	// fields, so an entry with snapshots can never be confused with one
	// without, even if the caller filled the key inconsistently.
	key.WarmStart, key.SnapEvery = warm, 0
	if warm {
		key.SnapEvery = snapEvery
	}
	if key.Workload == "" {
		st = nil // an unkeyed campaign never touches the index
	}
	if st != nil {
		if prof, err := st.GetProfile(key); err == nil && prof != nil {
			return prof, nil
		}
	}
	prof, err := profiler.Run(app, libs, 0)
	if err != nil {
		return nil, err
	}
	if warm {
		every := snapEvery
		if every == 0 {
			every = prof.TotalDyn/64 + 1
		}
		sprof, err := profiler.RunWithSnapshots(app, libs, 0, every)
		if err != nil {
			return nil, err
		}
		if sprof.TotalDyn != prof.TotalDyn {
			return nil, fmt.Errorf("faultinject: snapshot pass retired %d dyn, golden run %d; workload is nondeterministic and cannot warm-start",
				sprof.TotalDyn, prof.TotalDyn)
		}
		prof = sprof
	}
	if st != nil {
		populateStore(st, key, prof, app, libs)
	}
	return prof, nil
}

// populateStore caches a freshly derived profile, offering the sealed
// .text images of the app and its libraries for blob dedup. Store
// errors are deliberately non-fatal: a read-only or full store costs
// the next run a cache miss, never this run its result.
func populateStore(s *store.Store, key store.Key, prof *profiler.Profile, app *core.Binary, libs []*core.Binary) {
	var text []store.TextImage
	for _, b := range append([]*core.Binary{app}, libs...) {
		if b != nil && b.Prog != nil {
			if img := b.Prog.CodeImage(); len(img) > 0 {
				text = append(text, store.TextImage{Name: b.Prog.Name, Data: img})
			}
		}
	}
	_ = s.PutProfile(key, prof, text)
}

// runProfiled runs the campaign against an already-profiled golden run
// (split out so degenerate profiles are testable without a workload
// that actually retires zero instructions).
func (c *Campaign) runProfiled(prof *profiler.Profile) (*CampaignResult, error) {
	trials, err := c.RunTrialRange(prof, 0, c.N)
	if err != nil {
		return nil, err
	}
	return c.MergeResults(prof, trials)
}

// RunTrialRange executes trials [lo, hi) of the campaign's [0, N) index
// space against a prepared profile, on a pool of Workers goroutines.
// Each trial derives its RNG from (Seed, index), so a range run on any
// process yields the same TrialResults the full campaign would — this
// is the primitive a shard worker serves.
func (c *Campaign) RunTrialRange(prof *profiler.Profile, lo, hi int) ([]TrialResult, error) {
	if prof.TotalDyn == 0 {
		return nil, fmt.Errorf("faultinject: golden run of %q retired no instructions; nothing to inject into (degenerate workload parameters?)", c.App.Name)
	}
	if lo < 0 || hi < lo || hi > c.N {
		return nil, fmt.Errorf("faultinject: trial range [%d,%d) outside campaign [0,%d)", lo, hi, c.N)
	}
	hang := c.HangFactor
	if hang == 0 {
		hang = 4
	}
	trials := make([]TrialResult, hi-lo)
	var done atomic.Int64
	err := parallel.ForEach(hi-lo, c.Workers, func(j int) error {
		t, err := c.runTrial(lo+j, prof, hang)
		if err != nil {
			return err
		}
		trials[j] = t
		if c.Progress != nil {
			c.Progress(int(done.Add(1)), hi-lo)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return trials, nil
}

// MergeResults folds trial results — covering exactly [0, N) in index
// order, whether produced by one RunTrialRange call or concatenated
// from per-shard ranges — into the CampaignResult. All report maps are
// derived from the merged trace, so a sharded merge is byte-identical
// to a single-process one.
func (c *Campaign) MergeResults(prof *profiler.Profile, trials []TrialResult) (*CampaignResult, error) {
	if len(trials) != c.N {
		return nil, fmt.Errorf("faultinject: merging %d trial results, campaign has %d", len(trials), c.N)
	}
	for i := range trials {
		if trials[i].Index != i {
			return nil, fmt.Errorf("faultinject: trial result %d carries index %d; results must arrive in index order", i, trials[i].Index)
		}
	}
	// The merged trace must retain every trial's summary span (plus trap
	// stamps when Trace is set) for the latency derivation below.
	capSpans := 4 * c.N
	if capSpans < trace.DefaultSpanCap {
		capSpans = trace.DefaultSpanCap
	}
	res := &CampaignResult{
		Workload:  c.App.Name,
		Model:     c.Model,
		N:         c.N,
		Outcomes:  map[Outcome]int{},
		Symptoms:  map[machine.Signal]int{},
		GoldenDyn: prof.TotalDyn,
		ByDest:    map[machine.DestKind]map[Outcome]int{},
		Trace:     trace.New(capSpans),
	}
	if c.WarmStart {
		res.WarmStart = &WarmStartStats{Snapshots: len(prof.Snaps)}
	}
	res.Injections = make([]Injection, 0, c.N)
	for i := range trials {
		res.Trace.MergeAs(trials[i].Rec, int32(i))
		res.Injections = append(res.Injections, trials[i].Inj)
		if res.WarmStart != nil && trials[i].SkippedDyn > 0 {
			res.WarmStart.WarmTrials++
			res.WarmStart.SkippedDyn += trials[i].SkippedDyn
		}
	}
	// Derive the report maps from the merged counters. Only observed
	// classes get a key, mirroring the map-increment behaviour the
	// tables (and their tests) expect. Symptoms and per-destination
	// splits count fired trials only: an unfired trap has neither a
	// measured latency nor an attributable symptom.
	for _, o := range allOutcomes {
		if n := res.Trace.Counter(outcomeCounter(o)); n > 0 {
			res.Outcomes[o] = int(n)
		}
	}
	for _, s := range allSignals {
		if n := res.Trace.Counter(symptomCounter(s)); n > 0 {
			res.Symptoms[s] = int(n)
		}
	}
	for _, k := range allDests {
		for _, o := range allOutcomes {
			if n := res.Trace.Counter(destCounter(k, o)); n > 0 {
				if res.ByDest[k] == nil {
					res.ByDest[k] = map[Outcome]int{}
				}
				res.ByDest[k][o] = int(n)
			}
		}
	}
	if c.Domains {
		for d := machine.DomainID(0); d < machine.NumDomains; d++ {
			if n := res.Trace.Counter(domainCounter(d)); n > 0 {
				if res.ByDomain == nil {
					res.ByDomain = map[machine.DomainID]int{}
				}
				res.ByDomain[d] = int(n)
			}
		}
	}
	// Manifestation latencies come from the fired soft-failure trial
	// spans, in merge (= trial) order: the span covers last-fired-fault
	// to crash on the virtual clock (Table 4's buckets).
	for _, s := range res.Trace.Spans() {
		if s.Kind == trace.KindTrial && s.Val > 0 && s.Outcome == SoftFailure.String() {
			res.Latencies = append(res.Latencies, s.DynSpan())
		}
	}
	return res, nil
}

func sameResults(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
