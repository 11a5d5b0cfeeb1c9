package faultinject

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/machine"
	"care/internal/parallel"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/store"
	"care/internal/trace"
)

// CoverageExperiment reproduces the paper's §5.2/§5.3 evaluation: inject
// faults into profiled application instructions, keep the injections
// that manifest as SIGSEGV, and measure Safeguard's recovery rate
// (Figure 7 / Figure 12) and recovery time (Figure 9 / Table 9).
type CoverageExperiment struct {
	// App is a CARE-protected build; its Deps (linked, possibly
	// protected libraries) load with it.
	App *core.Binary `json:"-"`
	// TargetImages restricts injection to the named images; empty means
	// the application image only (the paper's §5 setup — recovering
	// library faults requires the library to be built with CARE, §5.5).
	TargetImages []string
	// Trials is the number of SIGSEGV-leading injections to examine.
	Trials int
	// MaxAttempts bounds total injections tried (default 40x Trials).
	MaxAttempts int
	// FaultsPerTrial arms this many independent faults per attempt (the
	// multi-fault model); <=1 is the paper's single-fault setup.
	FaultsPerTrial int
	// Model selects the bit-flip model.
	Model Model
	// Seed drives the randomness.
	Seed int64
	// Safeguard configures the runtime (zero = paper configuration).
	// When its policy needs a checkpoint store (Rollback or
	// DomainRewind), the Safeguard of every attempt's process keeps its
	// own, and the attempt's trace merges that store's trace.
	Safeguard safeguard.Config
	// RecordInjections retains the (trigger, bits) of recovered trials
	// so callers (e.g. the cluster experiment) can replay them.
	RecordInjections bool
	// Workers is the number of goroutines running injection attempts
	// concurrently; <=0 means one per available CPU. Attempt i derives
	// its RNG from (Seed, i) and results merge in attempt order, so
	// every field except the wall-clock recovery timings is identical
	// for every worker count.
	Workers int
	// WarmStart clones each attempt from the latest golden-run snapshot
	// whose execution counts precede every armed occurrence trigger,
	// pre-seeding the arming hook with the snapshot's counts so faults
	// fire at exactly the dyn they would in a cold run, and ends an
	// attempt whose faults have fired at the first later snapshot whose
	// state it equals, as Campaign.WarmStart does. Ignored when the
	// policy needs a checkpoint store (Rollback or DomainRewind): those
	// stages checkpoint each process at _start, which a mid-run clone
	// cannot reproduce.
	WarmStart bool
	// SnapEvery is the snapshot cadence in retired instructions
	// (warm-start only; 0 picks the default cadence of about
	// TotalDyn/64+1, as on Campaign.SnapEvery).
	SnapEvery uint64
	// Tier selects the interpreter tier every attempt runs on (results
	// are identical on every tier; see Campaign.Tier).
	Tier machine.InterpTier
	// Shards splits the attempt index space across the internal/shard
	// coordinator's workers (subprocesses when ShardExec is set,
	// in-process otherwise). Run itself stays single-process;
	// shard.RunCoverage runs Shards > 1 experiments. The in-order merge
	// with early stop (RunWaves) makes the sharded result identical to a
	// single-process run for any shard layout. <=1 disables. As on
	// Campaign, the experiment is the worker spec and the json:"-"
	// fields stay with the coordinator.
	Shards int `json:"-"`
	// ShardExec is the worker argv for subprocess shards; empty means
	// in-process workers. Read by the shard coordinator, ignored by Run.
	ShardExec []string `json:"-"`
	// Progress, when non-nil, is invoked once per merged wave with
	// (examined, Trials): the SIGSEGV trials examined so far out of the
	// Trials the experiment stops at (an experiment that runs out of
	// attempts stops short of it). Reporting only, never recorded in
	// traces.
	Progress func(done, total int) `json:"-"`
	// Store and StoreKey cache the golden-run profile across runs,
	// exactly as on Campaign: a verified hit skips the golden run, a
	// miss or corrupt entry runs cold and repopulates. The key's
	// cadence fields are pinned from the experiment's effective
	// warm-start (which the Safeguard policy can suppress), so entries
	// with and without snapshots never collide.
	Store    *store.Store `json:"-"`
	StoreKey store.Key
}

// CoverageResult aggregates the experiment.
type CoverageResult struct {
	Workload string
	OptLevel int
	Model    Model

	// Attempts is the number of injections performed; SigsegvTrials of
	// them raised SIGSEGV and were examined.
	Attempts      int
	SigsegvTrials int
	// Recovered counts trials whose process ran to completion.
	Recovered int
	// CleanRecovered counts recovered trials with golden output; the
	// difference is faults that also corrupted a non-address data path.
	CleanRecovered int
	// FailureOutcomes histograms the Safeguard outcome that terminated
	// each unrecovered trial.
	FailureOutcomes map[safeguard.Outcome]int
	// Events collects every Safeguard activation across trials.
	Events []safeguard.Event
	// TrialRecoveryTimes is the summed recovery time per recovered
	// trial (a single fault can require several activations, §5.3).
	TrialRecoveryTimes []time.Duration
	// ActivationsPerRecovery distribution (how many repairs per fault).
	ActivationsPerRecovery []int
	// RecoveredInjections replays recovered trials (only populated when
	// the experiment sets RecordInjections and arms one fault per
	// trial).
	RecoveredInjections []ArmSpec
	// Rollbacks counts checkpoint-rollback activations across examined
	// trials (escalation-chain policies only). Derived from the merged
	// trace's safeguard counters.
	Rollbacks int
	// DomainRewinds counts domain-rewind activations across examined
	// trials (Policy.DomainRewind only). Derived like Rollbacks.
	DomainRewinds int
	// CheckpointIO is the modelled snapshot-write time accumulated by
	// examined trials' rollback-stage checkpoint stores. Derived from
	// the merged trace's checkpoint counters.
	CheckpointIO time.Duration
	// Trace is the merged recorder of every examined trial (safeguard
	// activations with phase spans, checkpoint I/O spans), merged in
	// attempt order with Rank carrying the attempt index. Wall times in
	// it are measured, so determinism comparisons scrub it.
	Trace *trace.Recorder
}

// Coverage is the Figure 7 metric: recovered / examined SIGSEGV trials.
func (r *CoverageResult) Coverage() float64 {
	if r.SigsegvTrials == 0 {
		return 0
	}
	return float64(r.Recovered) / float64(r.SigsegvTrials)
}

// SDCs counts recovered trials whose output diverged from the golden
// run — the injections that survived recovery as silent data corruption.
func (r *CoverageResult) SDCs() int { return r.Recovered - r.CleanRecovered }

// MeanRecoveryTime is the Figure 9 metric.
func (r *CoverageResult) MeanRecoveryTime() time.Duration {
	if len(r.TrialRecoveryTimes) == 0 {
		return 0
	}
	var s time.Duration
	for _, t := range r.TrialRecoveryTimes {
		s += t
	}
	return s / time.Duration(len(r.TrialRecoveryTimes))
}

// PrepFraction is the fraction of recovery time spent preparing —
// outside kernel execution and checkpoint rollback (the paper reports
// >98%). It is derived from the merged trace's per-phase counters, so
// it stays exact even when the span ring has dropped old activations.
func (r *CoverageResult) PrepFraction() float64 {
	phase := func(k trace.Kind) time.Duration {
		return time.Duration(r.Trace.Counter(safeguard.PhaseNsCounters[k]))
	}
	prep := phase(trace.KindDiagnose) + phase(trace.KindLoad) +
		phase(trace.KindFetch) + phase(trace.KindPatch)
	total := prep + phase(trace.KindKernel) + phase(trace.KindRollback) +
		phase(trace.KindDomainRewind)
	if total == 0 {
		return 0
	}
	return float64(prep) / float64(total)
}

// Coverage-level trace counters, charged deterministically at merge
// time (the attempt merge order is worker-count independent). The
// policy study reads its recovery/SDC/stall columns from these, so a
// trace file alone reproduces the comparison table.
const (
	// CounterExamined counts examined SIGSEGV trials.
	CounterExamined = "coverage.examined"
	// CounterRecovered counts trials whose process ran to completion.
	CounterRecovered = "coverage.recovered"
	// CounterSDC counts recovered trials with corrupted output.
	CounterSDC = "coverage.sdc"
	// CounterStallNs sums per-trial recovery stall (wall-clock based, so
	// determinism comparisons scrub it like every other -ns counter).
	CounterStallNs = "coverage.stall-ns"
)

// sampler draws (image, static index) weighted by execution count.
type sampler struct {
	images  []string
	starts  []uint64 // cumulative count boundaries per image
	offsets [][]uint64
	counts  map[string][]uint64
	total   uint64
}

func newSampler(prof *profiler.Profile, targets []string) (*sampler, error) {
	s := &sampler{counts: map[string][]uint64{}}
	for _, name := range targets {
		cnts, ok := prof.Counts[name]
		if !ok {
			return nil, fmt.Errorf("faultinject: image %q has no profile", name)
		}
		// Per-image cumulative offsets for binary-search-free sampling.
		cum := make([]uint64, len(cnts)+1)
		for i, c := range cnts {
			cum[i+1] = cum[i] + c
		}
		if cum[len(cnts)] == 0 {
			continue
		}
		s.images = append(s.images, name)
		s.starts = append(s.starts, s.total)
		s.offsets = append(s.offsets, cum)
		s.counts[name] = cnts
		s.total += cum[len(cnts)]
	}
	if s.total == 0 {
		return nil, fmt.Errorf("faultinject: target images %v executed no instructions in the golden run; nothing to inject into (degenerate workload parameters?)", targets)
	}
	return s, nil
}

// draw picks an (image, index, occurrence) triple equivalent to a
// uniformly random dynamic instruction of the target images.
func (s *sampler) draw(rng *rand.Rand) (string, int, uint64) {
	r := uint64(rng.Int63n(int64(s.total)))
	// Find the image.
	ii := 0
	for ii+1 < len(s.images) && r >= s.starts[ii+1] {
		ii++
	}
	r -= s.starts[ii]
	// Binary search the instruction.
	cum := s.offsets[ii]
	lo, hi := 0, len(cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	occ := r - cum[lo] + 1
	return s.images[ii], lo, occ
}

// AttemptResult is the outcome of one injection attempt — the unit the
// in-order merge consumes and the shard coordinator ships between
// processes. Every field except RecTime is on the deterministic virtual
// clock, so an attempt is identical wherever it ran.
type AttemptResult struct {
	// Index is the attempt's position in the [0, MaxAttempts) space;
	// the merge consumes attempts strictly in Index order.
	Index int
	// Counted reports whether the attempt produced an examined SIGSEGV
	// trial (the injection fired, Safeguard activated, and the first
	// symptom was SIGSEGV).
	Counted bool
	Events  []safeguard.Event
	// Trace is the examined trial's recorder: the safeguard trace merged
	// with the checkpoint store's (when the rollback stage ran).
	Trace *trace.Recorder
	// Recovered/Clean/RecTime/Activations describe a recovered trial;
	// Failure is the terminating Safeguard outcome of an unrecovered one.
	Recovered   bool
	Clean       bool
	RecTime     time.Duration
	Activations int
	Failure     safeguard.Outcome
	Rec         ArmSpec
}

// runAttempt performs the i'th injection attempt against a fresh
// protected process. All randomness derives from (e.Seed, i), so
// attempts are independent and may run concurrently.
func (e *CoverageExperiment) runAttempt(i int, prof *profiler.Profile, smp *sampler) (AttemptResult, error) {
	rng := rand.New(rand.NewSource(TrialSeed(e.Seed, uint64(i))))
	k := e.FaultsPerTrial
	if k <= 0 {
		k = 1
	}
	specs := make([]ArmSpec, k)
	for j := range specs {
		img, idx, occ := smp.draw(rng)
		specs[j] = ArmSpec{
			Trigger: Trigger{Image: img, StaticIdx: idx, Occurrence: occ},
			Bits:    pickBits(rng, e.Model),
		}
	}
	p, seed, err := startRun(core.ProcessConfig{
		App: e.App, Protected: true, Safeguard: e.Safeguard,
		Tier: e.Tier,
	}, prof, specs)
	if err != nil {
		return AttemptResult{}, err
	}
	// An attempt that rejoins the golden run exits as the golden run
	// does, with its results: one Safeguard never activated in, which is
	// never examined, or one a recovery kernel repaired (the kernel's
	// scratch stack is no part of the comparison; see
	// machine.Memory.Matches). A heuristic patch allocates heap and a
	// restoring policy keeps its checkpoint hook installed, so neither
	// rejoins, and any other activation kills the run.
	status, armed, rejoined := drive(p.CPU, prof, specs, seed, hangFactor*prof.TotalDyn, nil)
	results := p.Results()
	if rejoined != nil {
		status, results = machine.StatusExited, prof.Golden
	}
	a := AttemptResult{Index: i}
	if !slices.ContainsFunc(armed, func(st *Armed) bool { return st.Fired }) {
		return a, nil // program finished before any occurrence came up
	}
	sg := p.SG
	events := sg.Events()
	if len(events) == 0 {
		return a, nil // fault did not manifest as a trap Safeguard saw
	}
	if events[0].Outcome == safeguard.WrongSignal {
		return a, nil // crashed with a non-SIGSEGV symptom
	}
	a.Counted = true
	a.Events = events
	a.Trace = trace.New(trace.DefaultSpanCap)
	a.Trace.Merge(sg.Trace())
	if st := sg.Checkpoints(); st != nil {
		a.Trace.Merge(st.Trace())
	}
	if status != machine.StatusExited {
		// Unrecovered: attribute to the last activation's outcome.
		a.Failure = events[len(events)-1].Outcome
		return a, nil
	}
	a.Recovered = true
	if slices.Equal(results, prof.Golden) {
		a.Clean = true
		if k == 1 {
			a.Rec = specs[0]
		}
	}
	for _, ev := range events {
		switch ev.Outcome {
		case safeguard.Recovered, safeguard.RecoveredInduction,
			safeguard.DomainRewound, safeguard.RolledBack:
			a.RecTime += ev.Total()
			a.Activations++
		}
	}
	return a, nil
}

// MergeAttempt folds one attempt into the result, mirroring the serial
// loop. The attempt's trace merges in attempt order with Rank carrying
// the attempt index; Rollbacks and CheckpointIO re-derive from the
// merged counters rather than being tallied separately. RunWaves calls
// it for every attempt it keeps.
func (res *CoverageResult) MergeAttempt(a *AttemptResult, record bool) {
	res.Attempts++
	if !a.Counted {
		return
	}
	res.SigsegvTrials++
	res.Events = append(res.Events, a.Events...)
	res.Trace.MergeAs(a.Trace, int32(res.Attempts-1))
	res.Trace.Add(CounterExamined, 1)
	res.Rollbacks = int(res.Trace.Counter(safeguard.CounterRolledBack))
	res.DomainRewinds = int(res.Trace.Counter(safeguard.CounterDomainRewinds))
	res.CheckpointIO = time.Duration(res.Trace.Counter(checkpoint.CounterWriteNs))
	if !a.Recovered {
		res.FailureOutcomes[a.Failure]++
		return
	}
	res.Recovered++
	res.Trace.Add(CounterRecovered, 1)
	res.Trace.Add(CounterStallNs, a.RecTime.Nanoseconds())
	if !a.Clean {
		res.Trace.Add(CounterSDC, 1)
	}
	if a.Clean {
		res.CleanRecovered++
		if record && (a.Rec.Trigger.Image != "" || a.Rec.Trigger.AtDyn > 0) {
			res.RecoveredInjections = append(res.RecoveredInjections, a.Rec)
		}
	}
	res.TrialRecoveryTimes = append(res.TrialRecoveryTimes, a.RecTime)
	res.ActivationsPerRecovery = append(res.ActivationsPerRecovery, a.Activations)
}

// Run executes the experiment: injection attempts run speculatively in
// chunks on a pool of Workers goroutines and merge in attempt-index
// order until enough SIGSEGV trials have been examined. Speculative
// attempts beyond the stopping point are discarded, so every field of
// the CoverageResult except the wall-clock recovery timings is
// identical for every worker count.
func (e *CoverageExperiment) Run() (*CoverageResult, error) {
	prof, err := e.Prepare()
	if err != nil {
		return nil, err
	}
	return e.runProfiled(prof)
}

// Prepare validates the experiment and performs its golden pass (which
// also captures the warm-start snapshots when they apply), returning
// the profile attempts run against. Run calls it implicitly; every
// shard worker calls it too (see Campaign.Prepare).
func (e *CoverageExperiment) Prepare() (*profiler.Profile, error) {
	if e.Trials <= 0 {
		return nil, fmt.Errorf("faultinject: coverage Trials must be positive")
	}
	if err := e.Safeguard.Policy.Validate(); err != nil {
		return nil, err
	}
	warm := e.WarmStart && !e.Safeguard.Policy.NeedsStore()
	return prepareProfile(e.App, e.Store, e.StoreKey, warm, e.SnapEvery)
}

// AttemptBudget is the experiment's attempt index space [0, budget):
// MaxAttempts, or the 40x Trials default, which RunWaves partitions
// into waves.
func (e *CoverageExperiment) AttemptBudget() int {
	if e.MaxAttempts > 0 {
		return e.MaxAttempts
	}
	return 40 * e.Trials
}

// NewResult returns an empty CoverageResult ready for MergeAttempt —
// the accumulator RunWaves merges into.
func (e *CoverageExperiment) NewResult() *CoverageResult {
	return &CoverageResult{
		Workload:        e.App.Name,
		OptLevel:        e.App.Prog.OptLevel,
		Model:           e.Model,
		FailureOutcomes: map[safeguard.Outcome]int{},
		Trace:           trace.New(trace.DefaultSpanCap),
	}
}

// RunAttemptRange executes attempts [lo, hi) of the experiment's index
// space against a prepared profile on a pool of Workers goroutines.
// Attempt i derives its RNG from (Seed, i), so a range run on any
// process yields the same AttemptResults the full experiment would —
// the primitive a shard worker serves.
func (e *CoverageExperiment) RunAttemptRange(prof *profiler.Profile, lo, hi int) ([]AttemptResult, error) {
	if lo < 0 || hi < lo || hi > e.AttemptBudget() {
		return nil, fmt.Errorf("faultinject: attempt range [%d,%d) outside budget [0,%d)", lo, hi, e.AttemptBudget())
	}
	targets := e.TargetImages
	if len(targets) == 0 {
		targets = []string{e.App.Name}
	}
	smp, err := newSampler(prof, targets)
	if err != nil {
		return nil, err
	}
	return runRange(lo, hi, e.Workers, func(i int) (AttemptResult, error) {
		return e.runAttempt(i, prof, smp)
	})
}

// RunWaves is the experiment's wave loop, shared by Run and the shard
// coordinator: run(lo, hi) executes attempts [lo, hi) of the index space
// in waves of at most wave attempts, and each wave merges strictly in
// attempt order until enough SIGSEGV trials have been examined.
// Speculative attempts past the stopping point are discarded, so the
// stop index — and with it every field except the wall-clock recovery
// timings — depends only on the attempt sequence, never on the wave
// size or on where the attempts ran. Progress hears the examined count
// after every merged wave. An experiment that runs out of attempts
// returns its partial result together with the error.
func (e *CoverageExperiment) RunWaves(wave int, run func(lo, hi int) ([]AttemptResult, error)) (*CoverageResult, error) {
	budget := e.AttemptBudget()
	res := e.NewResult()
	for base := 0; base < budget && res.SigsegvTrials < e.Trials; base += wave {
		atts, err := run(base, min(base+wave, budget))
		if err != nil {
			return nil, err
		}
		for i := range atts {
			if res.SigsegvTrials >= e.Trials {
				break // speculative overshoot; discard to stay deterministic
			}
			if atts[i].Index != base+i {
				return nil, fmt.Errorf("faultinject: attempt result %d carries index %d; results must arrive in index order", base+i, atts[i].Index)
			}
			res.MergeAttempt(&atts[i], e.RecordInjections)
		}
		if e.Progress != nil {
			e.Progress(res.SigsegvTrials, e.Trials)
		}
	}
	if res.SigsegvTrials < e.Trials {
		return res, fmt.Errorf("faultinject: only %d/%d SIGSEGV trials after %d attempts",
			res.SigsegvTrials, e.Trials, res.Attempts)
	}
	return res, nil
}

// runProfiled runs the experiment against an already-profiled golden
// run (split out so degenerate profiles are testable directly). Each
// wave runs a few attempts per worker, wasting at most one wave of
// speculative attempts.
func (e *CoverageExperiment) runProfiled(prof *profiler.Profile) (*CoverageResult, error) {
	wave := 4 * parallel.Workers(e.Workers, e.AttemptBudget())
	return e.RunWaves(wave, func(lo, hi int) ([]AttemptResult, error) {
		return e.RunAttemptRange(prof, lo, hi)
	})
}
