// Package cluster reproduces the paper's parallel-job experiments
// (§5.4, Figure 10): an N-rank MPI job (N ranks x T threads = "cores"),
// a CARE-recoverable fault injected into rank 0, and the comparison
// against the Checkpoint/Restart baseline (checkpoint every 20/50/75
// steps) that motivates CARE's near-zero recovery cost.
//
// Job time is virtual: one nanosecond per retired instruction, plus
// wall-measured Safeguard recovery time (which stalls every rank at the
// next collective, exactly as a real recovery stalls the job at its
// next barrier).
package cluster

import (
	"fmt"
	"slices"
	"time"

	"care/internal/checkpoint"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/mpi"
	"care/internal/parallel"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// Config describes a parallel job.
type Config struct {
	// Workload names the mini-app; Params sizes the per-rank problem
	// (weak scaling).
	Workload string
	Params   workloads.Params
	OptLevel int
	// Ranks is the number of MPI processes; ThreadsPerRank only scales
	// the reported core count (512 x 6 = 3072 in the paper).
	Ranks          int
	ThreadsPerRank int
	// Protected attaches Safeguard to every rank.
	Protected bool
	// Safeguard tunes the runtime on every rank (zero value = paper
	// one-shot configuration). When Safeguard.Policy needs a checkpoint
	// store (Rollback or DomainRewind), each rank's Safeguard keeps its
	// own, and the job trace merges it with the rank's attribution.
	Safeguard safeguard.Config
	// Seed drives the search for a recoverable injection.
	Seed int64
	// Tier selects the interpreter tier every rank runs on
	// (superblock or step). Rank results and trace spans are identical
	// on both tiers — only Span.Wall differs — matching the care-inject
	// knob (the CI smoke diffs a wall-scrubbed JSONL).
	Tier machine.InterpTier
	// Workers bounds the goroutines simulating ranks each superstep
	// (<=0 = one per CPU). The JobResult is identical for every value:
	// the superstep scheduler batches collective reductions between
	// parallel rank slices (mpi.RunSharded), so 512 ranks use the whole
	// machine without changing one architectural bit.
	Workers int
	// Progress, when non-nil, is invoked after each scheduler superstep
	// with (ranksExited, ranks) — heartbeat reporting only, never part
	// of the job trace.
	Progress func(done, total int)
}

// JobResult summarises one job execution.
type JobResult struct {
	Completed bool
	Ranks     int
	Cores     int
	// MaxDyn is the slowest rank's instruction count.
	MaxDyn   uint64
	TotalDyn uint64
	// VirtualTime = MaxDyn * 1ns + RecoveryStall.
	VirtualTime time.Duration
	// RecoveryStall is the wall-measured Safeguard time summed across
	// ranks (in the §5.4 setup only rank 0 is injected, so this is rank
	// 0's stall). Derived from the job trace's rank-stall spans.
	RecoveryStall time.Duration
	// PerRankStall attributes the stall to each rank.
	PerRankStall []time.Duration
	// Recoveries counts successful Safeguard repairs across ranks.
	Recoveries int
	// Rollbacks counts checkpoint restores performed by the escalation
	// chain; their modelled cost is part of RecoveryStall.
	Rollbacks int
	// DomainRewinds counts domain-scoped partial rollbacks performed by
	// the escalation chain; their (much smaller) cost is part of
	// RecoveryStall too.
	DomainRewinds int
	// Injected reports whether the armed fault fired.
	Injected bool
	// DeadRank is the rank that died (-1 when none).
	DeadRank int
	// Trace is the job's merged recorder: every rank's safeguard and
	// checkpoint spans (Rank-attributed), one KindRankStall span per
	// stalled rank, and a KindJob summary span whose Wall is the job's
	// virtual time (VirtualTime and RecoveryStall are read from those
	// spans).
	Trace *trace.Recorder
}

// Injection pins a specific fault for rank 0.
type Injection = faultinject.ArmSpec

// SearchOptions tunes FindRecoverableInjection.
type SearchOptions struct {
	// WarmStart clones the search's injection attempts from golden-run
	// snapshots (faultinject.CoverageExperiment.WarmStart); the found
	// injection is identical either way.
	WarmStart bool
	// SnapEvery is the snapshot cadence in retired instructions (0 =
	// the default cadence of about TotalDyn/64+1; see
	// faultinject.Campaign.SnapEvery).
	SnapEvery uint64
	// Tier selects the interpreter tier the search attempts run on;
	// the found injection is identical on every tier.
	Tier machine.InterpTier
	// Shards > 1 spreads each search's attempt waves over the shard
	// coordinator's workers (shard.RunCoverage); the found injection is
	// identical for any shard count. ShardExec is the worker subprocess
	// argv (empty = in-process workers), and Build must then describe
	// how a worker rebuilds the search binary.
	Shards    int
	ShardExec []string
	Build     shard.BuildSpec
	// Store caches the search's golden-run profile across runs and
	// experiments, keyed from Build plus the search seed: every
	// experiment of a search profiles the same binary, so after the
	// first populates the entry the rest are cache hits. Nil disables.
	Store *store.Store
}

// FindRecoverableInjection searches (deterministically) for an injection
// that CARE recovers on a single-rank run of the binary — the §5.4
// setup injects only CARE-recoverable faults.
func FindRecoverableInjection(bin *core.Binary, seed int64, opts SearchOptions) (*Injection, error) {
	for attempt := 0; attempt < 8; attempt++ {
		exp := &faultinject.CoverageExperiment{
			App: bin, Trials: 4, Seed: seed + int64(attempt),
			MaxAttempts: 400, RecordInjections: true,
			WarmStart: opts.WarmStart, SnapEvery: opts.SnapEvery,
			Tier: opts.Tier, Shards: opts.Shards, ShardExec: opts.ShardExec,
		}
		if opts.Store != nil {
			exp.Store = opts.Store
			// The golden profile does not depend on the experiment's
			// seed, so one entry serves them all.
			exp.StoreKey = opts.Build.Key("coverage", seed, opts.WarmStart, opts.SnapEvery)
		}
		res, err := shard.RunCoverage(exp, opts.Build)
		if res != nil && len(res.RecoveredInjections) > 0 {
			return &res.RecoveredInjections[0], nil
		}
		if err != nil && res == nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: no recoverable injection found")
}

// RunJob executes the parallel job, optionally injecting the fault into
// rank 0.
func RunJob(cfg Config, bin *core.Binary, inj *Injection) (*JobResult, error) {
	if cfg.Ranks <= 0 {
		// Match the care-cluster CLI default (ROADMAP item 2 reconciled
		// these; the paper's evaluated shape is -ranks 512).
		cfg.Ranks = 8
	}
	if cfg.ThreadsPerRank <= 0 {
		cfg.ThreadsPerRank = 6
	}
	if cfg.Protected && cfg.Safeguard.TraceCap == 0 && cfg.Ranks >= 64 {
		// Bound per-rank trace memory at wide rank counts: counters stay
		// exact past the ring, only per-span detail drops oldest-first,
		// so a 512-rank job runs in bounded RSS. Narrow jobs keep the
		// deeper default ring.
		cfg.Safeguard.TraceCap = 1024
	}
	world := mpi.NewWorld(cfg.Ranks)
	cpus := make([]*machine.CPU, cfg.Ranks)
	procs := make([]*core.Process, cfg.Ranks)
	// Process creation dominates startup at 512 ranks (each rank maps
	// and initialises its own image), so it fans out on the same pool
	// the scheduler uses; creation order cannot matter because ranks
	// only interact through collectives, which none has reached yet.
	err := parallel.ForEach(cfg.Ranks, cfg.Workers, func(r int) error {
		pcfg := core.ProcessConfig{
			App:       bin,
			Protected: cfg.Protected,
			Safeguard: cfg.Safeguard,
			Env:       world.Env(r),
			Tier:      cfg.Tier,
		}
		p, err := core.NewProcess(pcfg)
		if err != nil {
			return err
		}
		procs[r] = p
		cpus[r] = p.CPU
		return nil
	})
	if err != nil {
		return nil, err
	}
	var armed *faultinject.Armed
	if inj != nil {
		armed = faultinject.Arm(cpus[0], inj.Trigger, inj.Bits)
	}
	mres, err := mpi.RunSharded(world, cpus, cfg.Workers, cfg.Progress)
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Completed: mres.Completed,
		Ranks:     cfg.Ranks,
		Cores:     cfg.Ranks * cfg.ThreadsPerRank,
		MaxDyn:    mres.MaxDyn,
		TotalDyn:  mres.TotalDyn,
		DeadRank:  mres.DeadRank,
		Injected:  armed == nil || armed.Fired,
	}
	// Fold every rank's safeguard/checkpoint trace into the job trace
	// with rank attribution, and attribute each rank's stall (the
	// Safeguard time that parks the rank until the next collective) as a
	// KindRankStall span.
	rec := trace.New(trace.DefaultSpanCap)
	out.PerRankStall = make([]time.Duration, cfg.Ranks)
	for r, p := range procs {
		sg := p.SG
		if sg == nil {
			continue
		}
		rec.MergeAs(sg.Trace(), int32(r))
		if st := sg.Checkpoints(); st != nil {
			rec.MergeAs(st.Trace(), int32(r))
		}
		var stall time.Duration
		for _, ev := range sg.Events() {
			switch ev.Outcome {
			case safeguard.Recovered, safeguard.RecoveredInduction,
				safeguard.HeuristicPatched, safeguard.DomainRewound,
				safeguard.RolledBack:
				stall += ev.Total()
			}
		}
		out.PerRankStall[r] = stall
		if stall > 0 {
			rec.Emit(trace.Span{
				Kind: trace.KindRankStall, Parent: trace.NoParent,
				Wall: stall, Rank: int32(r),
			})
		}
	}
	// Derive the summary tallies from the job trace.
	out.Rollbacks = int(rec.Counter(safeguard.CounterRolledBack))
	out.DomainRewinds = int(rec.Counter(safeguard.CounterDomainRewinds))
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindRankStall:
			out.RecoveryStall += s.Wall
		case trace.KindActivation:
			switch safeguard.Outcome(s.Outcome) {
			case safeguard.Recovered, safeguard.RecoveredInduction, safeguard.HeuristicPatched:
				out.Recoveries++
			}
		}
	}
	out.VirtualTime = time.Duration(out.MaxDyn) + out.RecoveryStall
	rec.Emit(trace.Span{
		Kind: trace.KindJob, Parent: trace.NoParent,
		EndDyn: out.MaxDyn, Wall: out.VirtualTime,
		Outcome: fmt.Sprintf("completed=%v", out.Completed),
	})
	out.Trace = rec
	return out, nil
}

// CRResult is the Checkpoint/Restart baseline cost for one fault.
type CRResult struct {
	Interval int
	// StepVirtual is the virtual time of one application step.
	StepVirtual time.Duration
	// Checkpoints written before the fault and their modelled I/O cost.
	Checkpoints  int
	CheckpointIO time.Duration
	// Recovery cost components (the paper's 14.4/25.9/37.6s trio for
	// GTC-P at intervals 20/50/75).
	Requeue      time.Duration
	RestartRead  time.Duration
	RecomputeDyn uint64
	Recompute    time.Duration
	// Total recovery time (requeue + read + recompute).
	RecoveryTotal time.Duration
	// Verified is true when the restarted run reproduced the golden
	// result stream (a real restore, not just a cost model).
	Verified bool
	// Trace is the run's checkpoint-store recorder (one span per
	// save/restore plus the I/O counters the costs above derive from).
	Trace *trace.Recorder
}

// RunCheckpointRestart measures the C/R baseline: run the workload
// checkpointing every interval steps, kill it at faultStep (a soft
// failure without CARE kills the job), restore the latest checkpoint and
// re-execute to completion — verifying output — while charging the
// checkpoint package's modelled requeue and I/O costs and one virtual
// nanosecond per recomputed instruction.
func RunCheckpointRestart(w *workloads.Workload, p workloads.Params, opt, interval, faultStep int) (*CRResult, error) {
	bin, err := core.Build(w.Module(p), core.BuildOptions{OptLevel: opt})
	if err != nil {
		return nil, err
	}
	prof, err := profiler.Run(bin, nil, 0)
	if err != nil {
		return nil, err
	}
	resultsPerStep := w.ResultsPerStep
	if resultsPerStep <= 0 {
		resultsPerStep = 1
	}

	proc, err := core.NewProcess(core.ProcessConfig{App: bin})
	if err != nil {
		return nil, err
	}
	store := checkpoint.NewStore()
	res := &CRResult{Interval: interval}

	// Drive the run in quanta, checkpointing at step boundaries and
	// killing the process at faultStep.
	step := 0
	var faultDyn uint64
	killed := false
	for {
		st := proc.CPU.Run(10_000)
		newStep := len(proc.Results()) / resultsPerStep
		for step < newStep {
			step++
			if step%interval == 0 {
				store.Save(proc.CPU, step)
			}
			if step == faultStep {
				killed = true
				faultDyn = proc.CPU.Dyn
				break
			}
		}
		if killed || st != machine.StatusLimit {
			break
		}
	}
	if !killed {
		return nil, fmt.Errorf("cluster: fault step %d never reached (run ended at step %d)", faultStep, step)
	}
	res.Checkpoints = store.Saves()
	res.CheckpointIO = store.ModeledWriteTime()
	res.Trace = store.Trace()

	// Restart: requeue, read the checkpoint, re-execute.
	res.Requeue = checkpoint.RequeueDelay
	snap := store.Latest()
	if snap == nil {
		// No checkpoint yet: restart from scratch.
		proc2, err := core.NewProcess(core.ProcessConfig{App: bin})
		if err != nil {
			return nil, err
		}
		st := proc2.Run(0)
		if st != machine.StatusExited {
			return nil, fmt.Errorf("cluster: scratch restart failed: %v", st)
		}
		res.RecomputeDyn = faultDyn
		res.Verified = slices.Equal(proc2.Results(), prof.Golden)
	} else {
		rd, err := store.Restore(proc.CPU, snap)
		if err != nil {
			return nil, err
		}
		res.RestartRead = rd
		before := proc.CPU.Dyn
		st := proc.CPU.Run(0)
		if st != machine.StatusExited {
			return nil, fmt.Errorf("cluster: restored run failed: %v (%v)", st, proc.CPU.PendingTrap)
		}
		// Lost work: from the checkpoint to the fault point.
		res.RecomputeDyn = faultDyn - before
		res.Verified = slices.Equal(proc.Results(), prof.Golden)
	}
	res.Recompute = time.Duration(res.RecomputeDyn)
	res.RecoveryTotal = res.Requeue + res.RestartRead + res.Recompute

	// One step's virtual time, for scaling commentary.
	stepsTotal := len(prof.Golden) / resultsPerStep
	if stepsTotal > 0 {
		res.StepVirtual = time.Duration(float64(prof.TotalDyn) / float64(stepsTotal))
	}
	return res, nil
}
