// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation. The cmd/ tools, the repository
// benchmarks and the EXPERIMENTS.md report generator all call into this
// package so that one implementation backs every way of reproducing a
// number.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"care/internal/armor"
	"care/internal/blas"
	"care/internal/checkpoint"
	"care/internal/cluster"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/parallel"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// BuildWorkload compiles a named workload with the given defense list
// (nil = undefended; see internal/defense for the registered passes).
func BuildWorkload(name string, p workloads.Params, opt int, defenses []string) (*core.Binary, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	return core.Build(w.Module(p), core.BuildOptions{OptLevel: opt, Defenses: defenses})
}

// OutcomeRow is one workload's row of Tables 2+3+4 (or 10+11 under the
// double-bit model).
type OutcomeRow struct {
	Workload string
	Res      *faultinject.CampaignResult
}

// StudyOptions bundles the execution knobs shared by the study runners:
// how wide to run, whether to keep traces, and whether campaigns
// warm-start their trials from golden-run snapshots. The zero value is
// the paper's serial-equivalent cold configuration (all-CPU workers,
// tracing off, cold trials).
type StudyOptions struct {
	// Workers bounds concurrent goroutines (<=0 = one per CPU). Results
	// are identical for every value.
	Workers int
	// Traced enables the per-campaign trace recorder (Row.Res.Trace),
	// which stays bit-identical for any worker count and warm-start
	// setting.
	Traced bool
	// WarmStart clones campaign trials from golden-run snapshots
	// (faultinject.Campaign.WarmStart); results stay bit-identical.
	WarmStart bool
	// SnapEvery is the snapshot cadence in retired instructions
	// (0 = TotalDyn/64+1).
	SnapEvery uint64
	// Tier selects the interpreter tier trial processes run on
	// (superblock, block or step); results stay bit-identical on every
	// tier (the CI smoke diffs them).
	Tier machine.InterpTier
	// Domains attributes each memory-symptom soft failure to the
	// isolation domain of its faulting address
	// (faultinject.Campaign.Domains); FormatOutcomeTables then appends
	// the crash-geography table.
	Domains bool
	// Shards > 1 routes campaigns through the shard coordinator
	// (shard.RunCampaign / shard.RunCoverage): chunks of the trial index
	// space run on whichever shard is idle, in worker subprocesses
	// (ShardExec argv; empty = in-process shards), and results merge in
	// trial order — bit-identical to the single-process run for every
	// shard x worker combination.
	Shards    int
	ShardExec []string
	// Progress, when non-nil, receives (done, total) heartbeats — trial
	// counts for campaigns, exited-rank counts for parallel jobs. Never
	// part of any trace or table.
	Progress func(done, total int)
	// Safeguard, CheckpointEveryResults and CheckpointModel configure
	// the per-rank recovery runtime of ParallelStudy jobs (zero value =
	// the paper's one-shot Safeguard with no checkpoint store). Studies
	// that take an explicit safeguard.Config parameter ignore these.
	Safeguard              safeguard.Config
	CheckpointEveryResults int
	CheckpointModel        checkpoint.CostModel
	// Store, when non-nil, is the persistent content-addressed artifact
	// store: campaigns consult it for a cached golden-run profile
	// (keyed by CampaignKey) before profiling and populate it on a miss,
	// and in subprocess shard mode every worker loads its profile from
	// the same directory. Study results, traces included, are
	// byte-identical with or without it.
	Store *store.Store
}

// CampaignKey derives the store cache key for one study campaign: the
// exact (workload, build options, defense list, seed, snapshot
// cadence) tuple the golden-run profile depends on. The CLIs reuse it
// to seal campaign traces under the same index entry.
func CampaignKey(kind, workload string, p workloads.Params, opt int, defenses []string, seed int64, opts StudyOptions) store.Key {
	pj, err := json.Marshal(p)
	if err != nil {
		// workloads.Params is a plain value type; Marshal cannot fail.
		panic(fmt.Sprintf("experiments: marshal params: %v", err))
	}
	return store.Key{
		Kind:      kind,
		Workload:  workload,
		Params:    string(pj),
		OptLevel:  opt,
		Defenses:  defenses,
		Seed:      seed,
		SnapEvery: opts.SnapEvery,
		WarmStart: opts.WarmStart,
	}
}

// OutcomeStudy runs the §2 manifestation study (Tables 2, 3, 4 / 10, 11).
// Workloads build and run concurrently on up to opts.Workers goroutines,
// and each campaign spreads its trials over the same worker budget; rows
// come back in names order and every campaign seeds per-trial RNGs from
// (seed, trial), so the study is deterministic for any worker count and
// for warm or cold starts. faults arms that many independent faults per
// trial (<=1 = the paper's single-fault model).
func OutcomeStudy(names []string, n, faults int, model faultinject.Model, seed int64, opt int, p workloads.Params, opts StudyOptions) ([]OutcomeRow, error) {
	rows := make([]OutcomeRow, len(names))
	err := parallel.ForEach(len(names), opts.Workers, func(i int) error {
		name := names[i]
		bin, err := BuildWorkload(name, p, opt, nil)
		if err != nil {
			return err
		}
		c := &faultinject.Campaign{
			App: bin, N: n, FaultsPerTrial: faults, Model: model, Seed: seed,
			Workers: opts.Workers, Trace: opts.Traced,
			WarmStart: opts.WarmStart, SnapEvery: opts.SnapEvery,
			Tier: opts.Tier, Domains: opts.Domains,
			Shards: opts.Shards, ShardExec: opts.ShardExec, Progress: opts.Progress,
			Store: opts.Store, StoreKey: CampaignKey("campaign", name, p, opt, nil, seed, opts),
		}
		var res *faultinject.CampaignResult
		if opts.Shards > 1 {
			res, err = shard.RunCampaign(c, shard.BuildSpec{Workload: name, Params: p, OptLevel: opt})
		} else {
			res, err = c.Run()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows[i] = OutcomeRow{Workload: name, Res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatOutcomeTables renders Tables 2, 3 and 4 for the rows.
func FormatOutcomeTables(rows []OutcomeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2-style — overall outcomes (%s)\n", rows[0].Res.Model)
	fmt.Fprintf(&sb, "%-10s %8s %13s %8s %6s\n", "Workload", "Benign", "SoftFailure", "SDC", "Hang")
	for _, r := range rows {
		o := r.Res.Outcomes
		fmt.Fprintf(&sb, "%-10s %8d %13d %8d %6d\n", r.Workload,
			o[faultinject.Benign], o[faultinject.SoftFailure], o[faultinject.SDC], o[faultinject.Hang])
	}
	fmt.Fprintf(&sb, "\nTable 3-style — soft-failure symptoms\n")
	fmt.Fprintf(&sb, "%-10s %9s %8s %9s %7s\n", "Workload", "SIGSEGV", "SIGBUS", "SIGABRT", "Other")
	for _, r := range rows {
		s := r.Res.Symptoms
		other := s[machine.SigFPE] + s[machine.SigILL] + s[machine.SigTRAP]
		fmt.Fprintf(&sb, "%-10s %9d %8d %9d %7d\n", r.Workload,
			s[machine.SigSEGV], s[machine.SigBUS], s[machine.SigABRT], other)
	}
	fmt.Fprintf(&sb, "\nTable 4-style — manifestation latency (dynamic instructions)\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s\n", "Workload", "<=10", "11-50", "51-400", ">400")
	for _, r := range rows {
		b := r.Res.LatencyBuckets()
		tot := b[0] + b[1] + b[2] + b[3]
		if tot == 0 {
			tot = 1
		}
		fmt.Fprintf(&sb, "%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", r.Workload,
			pct(b[0], tot), pct(b[1], tot), pct(b[2], tot), pct(b[3], tot))
	}
	haveDomains := false
	for _, r := range rows {
		if len(r.Res.ByDomain) > 0 {
			haveDomains = true
			break
		}
	}
	if haveDomains {
		fmt.Fprintf(&sb, "\nCrash geography — memory-symptom faults by isolation domain\n")
		fmt.Fprintf(&sb, "%-10s", "Workload")
		for d := machine.DomainID(0); d < machine.NumDomains; d++ {
			fmt.Fprintf(&sb, " %8s", d)
		}
		sb.WriteByte('\n')
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-10s", r.Workload)
			for d := machine.DomainID(0); d < machine.NumDomains; d++ {
				fmt.Fprintf(&sb, " %8d", r.Res.ByDomain[d])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func pct(a, b int) float64 { return 100 * float64(a) / float64(b) }

// CensusStudy computes Table 5 for all workloads. The per-workload
// censuses are independent pure analyses, so they run one per CPU.
func CensusStudy(p workloads.Params) []armor.CensusRow {
	ws := workloads.All()
	rows := make([]armor.CensusRow, len(ws))
	parallel.ForEach(len(ws), 0, func(i int) error {
		rows[i] = armor.Census(ws[i].Module(p))
		return nil
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].Module < rows[j].Module })
	return rows
}

// FormatCensus renders Table 5.
func FormatCensus(rows []armor.CensusRow) string {
	var sb strings.Builder
	sb.WriteString("Table 5-style — address-computation census\n")
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s\n", "Workload", "MemAccesses", "MultiOp%", "AvgOps")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12d %11.2f%% %12.2f\n", r.Module, r.MemAccesses, r.PctMulti(), r.AvgOps())
	}
	return sb.String()
}

// ArmorRow is one Table 8 row.
type ArmorRow struct {
	Workload    string
	Kernels     int
	AvgInstrs   float64
	CompileTime time.Duration
	ArmorTime   time.Duration
	LivenessPct float64
	TableBytes  int
	LibBytes    int
}

// ArmorStudy builds every evaluated workload with CARE and reports the
// Table 8 statistics.
func ArmorStudy(opt int, p workloads.Params, evaluatedOnly bool) ([]ArmorRow, error) {
	ws := workloads.All()
	if evaluatedOnly {
		ws = workloads.Evaluated()
	}
	rows := make([]ArmorRow, len(ws))
	err := parallel.ForEach(len(ws), 0, func(i int) error {
		w := ws[i]
		bin, err := core.Build(w.Module(p), core.BuildOptions{OptLevel: opt, Defenses: []string{"care"}})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		s := bin.DefenseStats["care"]
		lp := 0.0
		if s.TotalTime > 0 {
			lp = 100 * float64(s.AnalysisTime) / float64(s.TotalTime)
		}
		rows[i] = ArmorRow{
			Workload:    w.Name,
			Kernels:     s.NumKernels,
			AvgInstrs:   s.AvgKernelInstrs(),
			CompileTime: bin.CompileTime,
			ArmorTime:   s.TotalTime,
			LivenessPct: lp,
			TableBytes:  len(bin.RecoveryTable),
			LibBytes:    len(bin.RecoveryLib),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatArmor renders Table 8.
func FormatArmor(rows []ArmorRow) string {
	var sb strings.Builder
	sb.WriteString("Table 8-style — recovery-kernel statistics\n")
	fmt.Fprintf(&sb, "%-10s %8s %10s %14s %14s %10s %10s\n",
		"Workload", "Kernels", "AvgInstrs", "Compile", "Armor", "Table(B)", "Lib(B)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8d %10.2f %14s %14s %10d %10d\n",
			r.Workload, r.Kernels, r.AvgInstrs, r.CompileTime.Round(time.Microsecond),
			r.ArmorTime.Round(time.Microsecond), r.TableBytes, r.LibBytes)
	}
	return sb.String()
}

// CoverageRow is one bar of Figure 7/9/12.
type CoverageRow struct {
	Workload string
	OptLevel int
	Res      *faultinject.CoverageResult
}

// CoverageStudy runs the §5.2/§5.3 evaluation over the named workloads
// at both optimisation levels. The (workload, opt-level) grid cells run
// concurrently on up to workers goroutines (<=0 means one per CPU),
// each spreading its injection attempts over the same budget; rows come
// back in (names, opt) order regardless of the worker count.
func CoverageStudy(names []string, trials int, model faultinject.Model, seed int64, p workloads.Params, cfg safeguard.Config, workers int) ([]CoverageRow, error) {
	opts := []int{0, 1}
	rows := make([]CoverageRow, len(names)*len(opts))
	err := parallel.ForEach(len(rows), workers, func(i int) error {
		name, opt := names[i/len(opts)], opts[i%len(opts)]
		bin, err := BuildWorkload(name, p, opt, []string{"care"})
		if err != nil {
			return err
		}
		exp := &faultinject.CoverageExperiment{
			App: bin, Trials: trials, Model: model, Seed: seed, Safeguard: cfg, Workers: workers,
		}
		res, err := exp.Run()
		if err != nil && res == nil {
			return fmt.Errorf("%s O%d: %w", name, opt, err)
		}
		rows[i] = CoverageRow{Workload: name, OptLevel: opt, Res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCoverage renders Figures 7 and 9 as a table.
func FormatCoverage(rows []CoverageRow) string {
	var sb strings.Builder
	sb.WriteString("Figure 7/9-style — fault coverage and recovery time\n")
	fmt.Fprintf(&sb, "%-10s %4s %8s %10s %10s %12s %9s\n",
		"Workload", "Opt", "SEGV", "Recovered", "Coverage", "MeanRecTime", "Prep%")
	var totCov float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s  O%d %8d %10d %9.1f%% %12s %8.1f%%\n",
			r.Workload, r.OptLevel, r.Res.SigsegvTrials, r.Res.Recovered,
			100*r.Res.Coverage(), r.Res.MeanRecoveryTime().Round(time.Microsecond),
			100*r.Res.PrepFraction())
		totCov += r.Res.Coverage()
	}
	fmt.Fprintf(&sb, "average coverage: %.2f%%\n", 100*totCov/float64(len(rows)))
	return sb.String()
}

// ParallelRow is one Figure 10 pair.
type ParallelRow struct {
	Workload string
	Base     *cluster.JobResult
	Faulty   *cluster.JobResult
}

// ParallelStudy reproduces Figure 10: each evaluated workload runs as an
// N-rank job with and without a CARE-recoverable fault at rank 0.
// opts.WarmStart/SnapEvery speed up the recoverable-injection search
// that precedes each job, Tier selects the interpreter tier for both
// the search and every rank, and opts.Safeguard (with the checkpoint
// cadence/model) configures each rank's recovery chain — e.g. the
// domain-rewind escalation stage.
func ParallelStudy(names []string, ranks, threads, opt int, p workloads.Params, seed int64, opts StudyOptions) ([]ParallelRow, error) {
	var rows []ParallelRow
	for _, name := range names {
		bin, err := BuildWorkload(name, p, opt, []string{"care"})
		if err != nil {
			return nil, err
		}
		inj, err := cluster.FindRecoverableInjection(bin, seed,
			cluster.SearchOptions{
				WarmStart: opts.WarmStart, SnapEvery: opts.SnapEvery, Tier: opts.Tier,
				Shards: opts.Shards, ShardExec: opts.ShardExec,
				Build: shard.BuildSpec{Workload: name, Params: p, OptLevel: opt, Defenses: []string{"care"}},
				Store: opts.Store,
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cfg := cluster.Config{
			Workload: name, Ranks: ranks, ThreadsPerRank: threads, Protected: true, Tier: opts.Tier,
			Safeguard:              opts.Safeguard,
			CheckpointEveryResults: opts.CheckpointEveryResults,
			CheckpointModel:        opts.CheckpointModel,
			Workers:                opts.Workers,
			Progress:               opts.Progress,
		}
		base, err := cluster.RunJob(cfg, bin, nil)
		if err != nil {
			return nil, err
		}
		faulty, err := cluster.RunJob(cfg, bin, inj)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParallelRow{Workload: name, Base: base, Faulty: faulty})
	}
	return rows, nil
}

// FormatParallel renders Figure 10. Every number in the table is
// derived from the two job traces: the job durations and the recovery
// stall come out of the KindJob / KindRankStall rows of a
// trace.Compare between the baseline and faulty runs, so the report is
// a view over the trace spine rather than a recomputation.
func FormatParallel(rows []ParallelRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Figure 10-style — parallel jobs on %d ranks (%d cores)\n",
			rows[0].Base.Ranks, rows[0].Base.Cores)
	}
	fmt.Fprintf(&sb, "%-10s %14s %14s %12s %10s %12s %9s\n",
		"Workload", "Normal", "Fault+CARE", "Stall", "Delta%", "@60s-job", "Survived")
	for _, r := range rows {
		deltas := trace.Compare(
			trace.Aggregate(r.Base.Trace.Spans()),
			trace.Aggregate(r.Faulty.Trace.Spans()))
		job := trace.DeltaFor(deltas, trace.KindJob)
		stall := trace.DeltaFor(deltas, trace.KindRankStall)
		d := 0.0
		if job.WallA > 0 {
			d = float64(job.Diff) / float64(job.WallA) * 100
		}
		// The stall is an absolute cost; scaled to a realistic job
		// length (the paper's jobs run minutes) it vanishes.
		at60 := float64(stall.WallB) / float64(60*time.Second) * 100
		fmt.Fprintf(&sb, "%-10s %14s %14s %12s %9.3f%% %11.5f%% %9v\n",
			r.Workload, job.WallA.Round(time.Microsecond),
			job.WallB.Round(time.Microsecond),
			stall.WallB.Round(time.Microsecond), d, at60, r.Faulty.Completed)
	}
	return sb.String()
}

// CRStudy reproduces the §5.4 checkpoint/restart comparison for GTC-P.
func CRStudy(intervals []int, steps, faultStep int, p workloads.Params) ([]*cluster.CRResult, error) {
	w, err := workloads.Get("GTC-P")
	if err != nil {
		return nil, err
	}
	p.Steps = steps
	var out []*cluster.CRResult
	for _, iv := range intervals {
		r, err := cluster.RunCheckpointRestart(w, p, 0, iv, faultStep, checkpoint.DefaultCostModel(), 1)
		if err != nil {
			return nil, fmt.Errorf("interval %d: %w", iv, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatCR renders the C/R comparison.
func FormatCR(rows []*cluster.CRResult, careStall time.Duration) string {
	var sb strings.Builder
	sb.WriteString("§5.4-style — checkpoint/restart recovery cost (GTC-P)\n")
	fmt.Fprintf(&sb, "%-9s %6s %12s %10s %10s %12s %14s\n",
		"Interval", "Ckpts", "CkptIO", "Requeue", "Read", "Recompute", "RecoveryTotal")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9d %6d %12s %10s %10s %12s %14s\n",
			r.Interval, r.Checkpoints, r.CheckpointIO.Round(time.Microsecond),
			r.Requeue.Round(time.Millisecond), r.RestartRead.Round(time.Microsecond),
			r.Recompute.Round(time.Microsecond), r.RecoveryTotal.Round(time.Microsecond))
	}
	if careStall > 0 {
		fmt.Fprintf(&sb, "CARE recovery stall for the same class of fault: %s\n", careStall.Round(time.Microsecond))
	}
	return sb.String()
}

// BLASRow is Table 9.
type BLASRow struct {
	LibKernels    int
	DriverKernels int
	LibCompile    time.Duration
	LibArmor      time.Duration
	DriverCompile time.Duration
	DriverArmor   time.Duration
	Coverage      float64
	MeanRecovery  time.Duration
	SigsegvTrials int
}

// BLASStudy reproduces Table 9 (§5.5).
func BLASStudy(trials int, opt int, seed int64) (*BLASRow, error) {
	lib, err := core.BuildLib(blas.Library(), opt, 0, []string{"care"})
	if err != nil {
		return nil, err
	}
	drv, err := core.Build(blas.Sblat1(5), core.BuildOptions{OptLevel: opt, Defenses: []string{"care"}}, lib)
	if err != nil {
		return nil, err
	}
	exp := &faultinject.CoverageExperiment{
		App: drv, Libs: []*core.Binary{lib},
		TargetImages: []string{"sblat1", "libblas"},
		Trials:       trials, Seed: seed,
	}
	res, err := exp.Run()
	if err != nil && res == nil {
		return nil, err
	}
	return &BLASRow{
		LibKernels:    lib.DefenseStats["care"].NumKernels,
		DriverKernels: drv.DefenseStats["care"].NumKernels,
		LibCompile:    lib.CompileTime,
		LibArmor:      lib.DefenseStats["care"].TotalTime,
		DriverCompile: drv.CompileTime,
		DriverArmor:   drv.DefenseStats["care"].TotalTime,
		Coverage:      res.Coverage(),
		MeanRecovery:  res.MeanRecoveryTime(),
		SigsegvTrials: res.SigsegvTrials,
	}, nil
}

// FormatBLAS renders Table 9.
func FormatBLAS(r *BLASRow) string {
	var sb strings.Builder
	sb.WriteString("Table 9-style — BLAS / sblat1\n")
	fmt.Fprintf(&sb, "%-8s %9s %14s %14s\n", "", "Kernels", "Compile", "Armor")
	fmt.Fprintf(&sb, "%-8s %9d %14s %14s\n", "libblas", r.LibKernels, r.LibCompile.Round(time.Microsecond), r.LibArmor.Round(time.Microsecond))
	fmt.Fprintf(&sb, "%-8s %9d %14s %14s\n", "sblat1", r.DriverKernels, r.DriverCompile.Round(time.Microsecond), r.DriverArmor.Round(time.Microsecond))
	fmt.Fprintf(&sb, "coverage %.2f%% over %d SIGSEGV trials, mean recovery %s\n",
		100*r.Coverage, r.SigsegvTrials, r.MeanRecovery.Round(time.Microsecond))
	return sb.String()
}

// EvaluatedNames returns the §5 workload names.
func EvaluatedNames() []string {
	var names []string
	for _, w := range workloads.Evaluated() {
		names = append(names, w.Name)
	}
	return names
}

// AllNames returns every workload name.
func AllNames() []string {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return names
}

// BLASStudy2 is BLASStudy with an explicit Safeguard configuration
// (used by the induction-recovery extension benchmark).
func BLASStudy2(trials, opt int, seed int64, cfg safeguard.Config) (*BLASRow, error) {
	lib, err := core.BuildLib(blas.Library(), opt, 0, []string{"care"})
	if err != nil {
		return nil, err
	}
	drv, err := core.Build(blas.Sblat1(5), core.BuildOptions{OptLevel: opt, Defenses: []string{"care"}}, lib)
	if err != nil {
		return nil, err
	}
	exp := &faultinject.CoverageExperiment{
		App: drv, Libs: []*core.Binary{lib},
		TargetImages: []string{"sblat1", "libblas"},
		Trials:       trials, Seed: seed, Safeguard: cfg,
	}
	res, err := exp.Run()
	if err != nil && res == nil {
		return nil, err
	}
	return &BLASRow{
		LibKernels:    lib.DefenseStats["care"].NumKernels,
		DriverKernels: drv.DefenseStats["care"].NumKernels,
		Coverage:      res.Coverage(),
		MeanRecovery:  res.MeanRecoveryTime(),
		SigsegvTrials: res.SigsegvTrials,
	}, nil
}
