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
	"slices"
	"sort"
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

// ParseModel parses a -model flag value: "single" or "double".
func ParseModel(s string) (Model, error) {
	for i, n := range [...]string{"single", "double"} {
		if s == n {
			return Model(i), nil
		}
	}
	return SingleBit, fmt.Errorf("faultinject: unknown fault model %q (want single or double)", s)
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
// (fail-stop unless the Safeguard policy restores).
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
}

// Trigger selects the injection point.
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
	return armAllSeeded(cpu, specs, nil, nil)
}

// armAllSeeded is ArmAll with pre-seeded occurrence counters: a
// warm-started process resumes mid-run, so the retire hook never sees
// the skipped prefix's retirements and seed[si] must carry how many
// times spec si's static instruction already retired in it. A nil seed
// is the cold start. onFire, when non-nil, runs right after each
// corruption lands (the taint tracker seeds there). The states backing
// is allocated as one block and the occurrence counters only when some
// spec needs them (the campaign hot path is all AtDyn triggers).
func armAllSeeded(cpu *machine.CPU, specs []ArmSpec, seed []uint64, onFire func(*machine.CPU, *machine.MInstr)) []*Armed {
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
			if onFire != nil {
				onFire(c, in)
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
	// App is the binary under test; its Deps load with it.
	App *core.Binary `json:"-"`
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
	// re-executing the shared prefix from _start, and ends a trial whose
	// faults have fired at the first later snapshot whose state it equals
	// (it is Benign; see drive). The campaign result — including the
	// exported trace JSONL — is bit-identical to a cold campaign for
	// every worker count (the skipped prefix is deterministic and
	// fault-free, and the skipped suffix is the golden one); only
	// CampaignResult.WarmStart, which lives beside the trace, records the
	// shortcuts. Ignored for a Protected campaign whose policy needs a
	// checkpoint store (Rollback or DomainRewind), as on
	// CoverageExperiment.
	WarmStart bool
	// SnapEvery is the snapshot cadence in retired instructions
	// (warm-start only). 0 picks the default cadence of about
	// TotalDyn/64+1 (profiler.RunWithDefaultSnapshots): at most 63
	// snapshots, bounding the frozen-image memory while capping the
	// re-executed prefix at ~1/64 of the run per trial.
	SnapEvery uint64
	// Tier selects the interpreter tier every trial runs on
	// (superblock or step; the zero value is the fused superblock
	// default). The campaign result — including the exported trace
	// JSONL — is bit-identical on both tiers; the CI smoke diffs them.
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
	// one-shot configuration; Protected only). A policy that restores
	// gets the Safeguard's own checkpoint store, saved at _start, so
	// such a campaign starts every trial cold.
	Safeguard safeguard.Config
	// Shards spreads the trial index space over this many shards of the
	// internal/shard coordinator — worker subprocesses (ShardExec) or
	// in-process workers — which pull chunks of trials as they go idle;
	// results merge in trial-index order, so the result is
	// byte-identical to a single-process run.
	// Campaign.Run itself always runs single-process; shard.RunCampaign
	// runs Shards > 1 campaigns. <=1 means no sharding.
	//
	// The campaign itself is the shard worker's spec. The fields tagged
	// json:"-" stay with the coordinator: a worker rebuilds App from its
	// build recipe, reopens Store and runs its chunks unsharded.
	Shards int `json:"-"`
	// ShardExec is the worker argv for subprocess shards (e.g.
	// {"care-inject", "-shard-serve"}); empty means in-process workers.
	// Read by the shard coordinator, ignored by Run.
	ShardExec []string `json:"-"`
	// Progress, when non-nil, is invoked after every completed trial
	// with (done, N), done counting from trial 0. It may be called
	// concurrently from worker goroutines and must not touch the trial
	// results; it exists only for heartbeat reporting and never alters
	// the campaign outcome or trace.
	Progress func(done, total int) `json:"-"`
	// Store, when non-nil, caches the golden-run profile (and its
	// warm-start snapshots) under StoreKey: Prepare consults the store
	// first and a verified hit skips the golden run entirely; a
	// miss runs cold and populates the entry. Corruption degrades to
	// the cold path (the store charges its own fallback counter) — the
	// campaign result, including the exported trace JSONL, is
	// byte-identical with the store on, off, cold, or cache-hit.
	Store *store.Store `json:"-"`
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
	// ConvergedTrials counts trials that rejoined the golden run at a
	// snapshot after their faults fired and stopped there as Benign;
	// ConvergedDyn totals the golden-suffix instructions they did not
	// execute (the campaign.warmstart.converged figure).
	ConvergedTrials int
	ConvergedDyn    uint64
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

// DestName names a destination kind for reports.
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
	// ConvergedDyn is the golden-suffix length the trial did not execute
	// because its state rejoined the golden run at a snapshot (0 when it
	// ran to its end).
	ConvergedDyn uint64
	// Rec is the trial's recorder: outcome/symptom/destination counters
	// plus a KindTrial summary span (and trap stamps when Campaign.Trace
	// is set). Merged into the campaign trace in trial-index order.
	Rec *trace.Recorder
}

// hangFactor bounds every injected run at hangFactor×TotalDyn attempts,
// counted from _start: a run still going then is a Hang.
const hangFactor = 4

// runTrial executes the i'th injection of the campaign against a fresh
// process. All randomness comes from a trial-local RNG derived from
// (c.Seed, i), so trials are independent and may run concurrently.
func (c *Campaign) runTrial(i int, prof *profiler.Profile) (TrialResult, error) {
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
	p, seed, err := startRun(core.ProcessConfig{
		App: c.App, Tier: c.Tier,
		Protected: c.Protected, Safeguard: c.Safeguard,
	}, prof, specs)
	if err != nil {
		return TrialResult{}, err
	}
	skipped := p.CPU.Dyn
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
	var tracker *taint.Tracker
	var onFire func(*machine.CPU, *machine.MInstr)
	if c.TrackPropagation {
		tracker = taint.Attach(p.CPU)
		onFire = tracker.MarkDest
	}
	status, armed, rejoined := drive(p.CPU, prof, specs, seed, hangFactor*prof.TotalDyn, onFire)
	if armed == nil {
		return TrialResult{}, fmt.Errorf("faultinject: trial %d stopped (%v) at dyn %d, before its first target %d; the golden prefix must reach it",
			i, status, p.CPU.Dyn, firstTarget(specs))
	}
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
	endDyn := p.CPU.Dyn
	var converged uint64
	switch {
	case rejoined != nil:
		// The trial holds the golden state at rejoined.Dyn, so the rest of
		// its run is the golden suffix: it exits at TotalDyn with the
		// golden results and raises no trap (see drive).
		inj.Outcome = Benign
		endDyn = prof.TotalDyn
		converged = prof.TotalDyn - rejoined.Dyn
	case status == machine.StatusTrapped:
		inj.Outcome = SoftFailure
		inj.Signal = p.CPU.PendingTrap.Sig
		if last != nil {
			inj.Latency = p.CPU.Dyn - last.Dyn
		}
	case status == machine.StatusExited:
		if slices.Equal(p.Results(), prof.Golden) && p.CPU.ExitCode == prof.ExitCode {
			inj.Outcome = Benign
		} else {
			inj.Outcome = SDC
		}
	case status == machine.StatusLimit:
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
		StartDyn: startDyn, EndDyn: endDyn,
		Outcome: inj.Outcome.String(), Val: nFired,
	})
	return TrialResult{
		Index: i, Inj: inj, Fired: fired, Rec: rec,
		SkippedDyn: skipped, ConvergedDyn: converged,
	}, nil
}

// startRun builds the process an injected run starts from: a clone of
// the latest golden snapshot at which every trigger still lies ahead
// (warmSnapFor), or a cold process at _start when none does. Everything
// before the first fault fires is the deterministic fault-free golden
// prefix, so a clone is bit-identical to a cold process at the moment
// the first fault can fire. It returns the occurrence seeds drive arms
// the process with (nil for a cold start).
func startRun(cfg core.ProcessConfig, prof *profiler.Profile, specs []ArmSpec) (*core.Process, []uint64, error) {
	snap, seed := warmSnapFor(prof, specs)
	if snap == nil {
		p, err := core.NewProcess(cfg)
		return p, nil, err
	}
	p, err := core.NewProcessFromSnapshot(cfg, snap.State)
	return p, seed, err
}

// warmSnapFor picks the latest profile snapshot at which every trigger
// still lies ahead: strictly before an AtDyn target (a snapshot taken at
// the target has already retired it, uncorrupted), and with an
// occurrence trigger's instruction retired fewer than Occurrence times
// (at equality the target retirement has already happened). It returns
// the snapshot with the per-spec occurrence seeds (how often each spec's
// static instruction had retired by the snapshot), or (nil, nil) when
// no snapshot is eligible (cold start). Eligibility only ever ends as
// the run goes on, so a binary search finds the last eligible snapshot.
func warmSnapFor(prof *profiler.Profile, specs []ArmSpec) (*profiler.SnapPoint, []uint64) {
	countAt := func(sp *profiler.SnapPoint, trig Trigger) uint64 {
		cnts := sp.Counts[trig.Image]
		if trig.StaticIdx >= len(cnts) {
			return 0
		}
		return cnts[trig.StaticIdx]
	}
	passed := func(i int) bool {
		sp := &prof.Snaps[i]
		for _, s := range specs {
			if t := s.Trigger; t.AtDyn > 0 && sp.Dyn >= t.AtDyn || t.AtDyn == 0 && countAt(sp, t) >= t.Occurrence {
				return true
			}
		}
		return false
	}
	i := sort.Search(len(prof.Snaps), passed) - 1
	if i < 0 {
		return nil, nil
	}
	sp := &prof.Snaps[i]
	seed := make([]uint64, len(specs))
	for si, s := range specs {
		seed[si] = countAt(sp, s.Trigger)
	}
	return sp, seed
}

// firstTarget is the earliest AtDyn target of specs, or 0 when a
// trigger counts occurrences: which retirement is its k'th is not known
// in advance, so such faults are armed at once.
func firstTarget(specs []ArmSpec) uint64 {
	var first uint64
	for _, s := range specs {
		if s.Trigger.AtDyn == 0 {
			return 0
		}
		if first == 0 || s.Trigger.AtDyn < first {
			first = s.Trigger.AtDyn
		}
	}
	return first
}

// drive runs an injected run (a campaign trial or a coverage attempt)
// in budget slices until it ends: with no step hook up to the
// instruction before the first target (so the fault-free prefix runs on
// the fast interpreter tier), then with the faults armed, stopping at
// every later golden snapshot. The budget counts attempts from _start,
// so a warm start has already spent cpu.Dyn of it: in the golden prefix
// every attempt retires, and charging the skipped prefix keeps the Hang
// classification bit-identical between warm and cold runs. A slice of n
// attempts that returns StatusLimit charged exactly n; one that retired
// fewer (a trap a protected binary resumed from) ends short of its
// boundary, and the next slice runs toward the same boundary. An
// exhausted budget is a hang, as for a single Run.
//
// At a snapshot stop, once every armed fault has fired, the run is
// compared with the snapshot. A run's future depends only on the state
// a snapshot holds as long as no step hook is installed and no trap
// occurs; the golden suffix from a snapshot raises no trap and exits at
// TotalDyn after TotalDyn-Dyn retirements and the exit attempt. So a
// run that matches, with budget left for that suffix, would finish
// exactly as the golden run does, with its results: drive stops it
// there and returns the snapshot it rejoined, and callers take that as
// the golden exit. A run the Safeguard repaired can match too: the
// scratch stack its recovery kernel mapped is no part of the
// comparison (machine.Memory.Matches), and the golden suffix never
// reaches the handler that would read the Safeguard's own state. A run
// bound for any other outcome can never match, so the early stop
// changes no result.
func drive(cpu *machine.CPU, prof *profiler.Profile, specs []ArmSpec, seed []uint64, budget uint64, onFire func(*machine.CPU, *machine.MInstr)) (machine.RunStatus, []*Armed, *profiler.SnapPoint) {
	first := firstTarget(specs)
	budget -= cpu.Dyn
	var armed []*Armed
	for {
		if armed == nil && cpu.Dyn+1 >= first {
			armed = armAllSeeded(cpu, specs, seed, onFire)
		}
		// stop is the Dyn this slice runs to (0: the end of the run); at
		// is the snapshot taken there, if any.
		var stop uint64
		var at *profiler.SnapPoint
		if armed == nil {
			stop = first - 1
		} else if at = prof.NextSnap(cpu.Dyn); at != nil {
			stop = at.Dyn
		}
		n := budget
		if stop > 0 {
			n = min(n, stop-cpu.Dyn)
		}
		if n == 0 {
			// Run(0) would mean "no limit"; the budget is spent.
			return machine.StatusLimit, armed, nil
		}
		if st := cpu.Run(n); st != machine.StatusLimit {
			return st, armed, nil
		}
		budget -= n
		if at != nil && cpu.Dyn == at.Dyn && budget > prof.TotalDyn-cpu.Dyn &&
			allFired(armed) && !cpu.Hooked() && at.State.Matches(cpu) {
			return machine.StatusLimit, armed, at
		}
	}
}

// allFired reports whether every armed fault has landed.
func allFired(armed []*Armed) bool {
	for _, st := range armed {
		if !st.Fired {
			return false
		}
	}
	return true
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

// Prepare validates the campaign and performs its golden pass (which
// also captures the warm-start snapshots when enabled), returning the
// profile trials run against. Run calls it implicitly; every shard
// worker calls it too, so a sharded campaign's processes all derive the
// same profile (or load it from a shared store) without shipping it.
func (c *Campaign) Prepare() (*profiler.Profile, error) {
	if c.N <= 0 {
		return nil, fmt.Errorf("faultinject: campaign N must be positive")
	}
	warm := c.WarmStart && !(c.Protected && c.Safeguard.Policy.NeedsStore())
	return prepareProfile(c.App, c.Store, c.StoreKey, warm, c.SnapEvery)
}

// prepareProfile is the golden pass Campaign.Prepare and
// CoverageExperiment.Prepare share. A verified store hit under the
// effective key skips it entirely. Otherwise one profiling run derives
// the profile: a cold campaign's takes no snapshots, and a warm one's
// captures them in the same run, every snapEvery retirements or, when
// snapEvery is 0, on the default cadence (see Campaign.SnapEvery). The
// fresh profile populates the store. A corrupt entry charges
// store.fallback inside the store and degrades to the same cold path.
func prepareProfile(app *core.Binary, st *store.Store, key store.Key, warm bool, snapEvery uint64) (*profiler.Profile, error) {
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
	var prof *profiler.Profile
	var err error
	switch {
	case !warm:
		prof, err = profiler.Run(app, nil, 0)
	case snapEvery > 0:
		prof, err = profiler.RunWithSnapshots(app, nil, 0, snapEvery)
	default:
		prof, err = profiler.RunWithDefaultSnapshots(app)
	}
	if err != nil {
		return nil, err
	}
	if st != nil {
		populateStore(st, key, prof, app)
	}
	return prof, nil
}

// populateStore caches a freshly derived profile, offering the sealed
// .text images of the app and its Deps for blob dedup. Store errors are
// deliberately non-fatal: a read-only or full store costs the next run
// a cache miss, never this run its result.
func populateStore(s *store.Store, key store.Key, prof *profiler.Profile, app *core.Binary) {
	var text []store.TextImage
	for _, b := range append([]*core.Binary{app}, app.Deps...) {
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
	var done atomic.Int64
	done.Store(int64(lo))
	return runRange(lo, hi, c.Workers, func(i int) (TrialResult, error) {
		t, err := c.runTrial(i, prof)
		if err == nil && c.Progress != nil {
			c.Progress(int(done.Add(1)), c.N)
		}
		return t, err
	})
}

// runRange runs run(i) for every i in [lo, hi) on a pool of workers
// goroutines and returns the results in index order, or the error of
// the lowest failing index: the range runner behind RunTrialRange and
// RunAttemptRange.
func runRange[T any](lo, hi, workers int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, hi-lo)
	err := parallel.ForEach(hi-lo, workers, func(j int) (err error) {
		out[j], err = run(lo + j)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
		if ws := res.WarmStart; ws != nil {
			if trials[i].SkippedDyn > 0 {
				ws.WarmTrials++
				ws.SkippedDyn += trials[i].SkippedDyn
			}
			if trials[i].ConvergedDyn > 0 {
				ws.ConvergedTrials++
				ws.ConvergedDyn += trials[i].ConvergedDyn
			}
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
