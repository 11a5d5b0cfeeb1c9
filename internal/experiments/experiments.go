// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation. The cmd/ tools, the repository
// benchmarks and the EXPERIMENTS.md report generator all call into this
// package so that one implementation backs every way of reproducing a
// number.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"care/internal/armor"
	"care/internal/cluster"
	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/parallel"
	"care/internal/shard"
	"care/internal/workloads"
)

// OutcomeRow is one workload's row of Tables 2+3+4 (or 10+11 under the
// double-bit model).
type OutcomeRow struct {
	Workload string
	Res      *faultinject.CampaignResult
}

// OutcomeStudy runs the §2 manifestation study (Tables 2, 3, 4 / 10,
// 11): campaign c on every named workload, built at optimisation level
// opt with parameters p. Each cell copies c and sets only its App and
// StoreKey, so c carries every other knob (trials, faults per trial,
// model, seed, workers, tracing, warm start, tier, domains, shards,
// store, heartbeat). Workloads build and run concurrently on up to
// c.Workers goroutines, and each campaign spreads its trials over the
// same worker budget; rows come back in names order and every campaign
// seeds per-trial RNGs from (Seed, trial), so the study is
// deterministic for any worker count and for warm or cold starts.
func OutcomeStudy(names []string, opt int, p workloads.Params, c faultinject.Campaign) ([]OutcomeRow, error) {
	rows := make([]OutcomeRow, len(names))
	progress := cellProgress(c.Progress, len(names), c.N)
	err := parallel.ForEach(len(names), c.Workers, func(i int) error {
		name := names[i]
		build := shard.BuildSpec{Workload: name, Params: p, OptLevel: opt}
		bin, err := build.Build()
		if err != nil {
			return err
		}
		cell := c
		cell.App, cell.Progress = bin, progress[i]
		cell.StoreKey = build.Key("campaign", c.Seed, c.WarmStart)
		res, err := shard.RunCampaign(&cell, build)
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

// cellProgress splits a study's progress callback into one per cell.
// Cells run concurrently and each counts its own trials, up to each:
// cell i reports through the i-th callback, which records that cell's
// furthest count (a campaign's workers may report out of order) and,
// when it moves, hands progress the sum over all cells against the
// whole study's total, so done == total once, last. The sums reach
// progress under the lock, so they arrive in order. A nil progress
// yields nil callbacks.
func cellProgress(progress func(done, total int), cells, each int) []func(done, total int) {
	out := make([]func(done, total int), cells)
	if progress == nil {
		return out
	}
	var mu sync.Mutex
	done, sum := make([]int, cells), 0
	for i := range out {
		out[i] = func(d, _ int) {
			mu.Lock()
			defer mu.Unlock()
			if d > done[i] {
				sum, done[i] = sum+d-done[i], d
				progress(sum, cells*each)
			}
		}
	}
	return out
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
// Table 8 statistics. The Compile and Armor columns are wall-measured,
// so the workloads build one at a time: concurrent builds would time
// each other's contention.
func ArmorStudy(opt int, p workloads.Params, evaluatedOnly bool) ([]ArmorRow, error) {
	ws := workloads.All()
	if evaluatedOnly {
		ws = workloads.Evaluated()
	}
	rows := make([]ArmorRow, len(ws))
	for i, w := range ws {
		bin, err := core.Build(w.Module(p), core.BuildOptions{OptLevel: opt, Defenses: []string{"care"}})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
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

// CoverageStudy runs the §5.2/§5.3 evaluation: experiment e on every
// named workload, CARE-protected, at both optimisation levels. Each
// (workload, opt-level) cell copies e and sets only its App and
// StoreKey; the cells run concurrently on up to e.Workers goroutines
// (<=0 means one per CPU), each spreading its injection attempts over
// the same budget, and rows come back in (names, opt) order regardless
// of the worker count.
func CoverageStudy(names []string, p workloads.Params, e faultinject.CoverageExperiment) ([]CoverageRow, error) {
	opts := []int{0, 1}
	rows := make([]CoverageRow, len(names)*len(opts))
	err := parallel.ForEach(len(rows), e.Workers, func(i int) error {
		name, opt := names[i/len(opts)], opts[i%len(opts)]
		build := shard.BuildSpec{Workload: name, Params: p, OptLevel: opt, Defenses: []string{"care"}}
		bin, err := build.Build()
		if err != nil {
			return err
		}
		cell := e
		cell.App = bin
		cell.StoreKey = build.Key("coverage", e.Seed, e.WarmStart)
		res, err := shard.RunCoverage(&cell, build)
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

// ParallelStudy reproduces Figure 10: each named workload runs as the
// job cfg describes, with and without a CARE-recoverable fault at rank
// 0. For each workload the study sets only cfg's Workload and Protected
// and search's Build (the CARE build at cfg.Params and cfg.OptLevel);
// search, seeded with cfg.Seed, finds the injection (its warm start,
// tier, shards and store only speed that up), and cfg carries the
// rest: ranks, tier, workers, heartbeat and each rank's Safeguard
// configuration, e.g. the domain-rewind escalation chain.
func ParallelStudy(names []string, cfg cluster.Config, search cluster.SearchOptions) ([]ParallelRow, error) {
	var rows []ParallelRow
	for _, name := range names {
		cfg.Workload, cfg.Protected = name, true
		search.Build = shard.BuildSpec{Workload: name, Params: cfg.Params, OptLevel: cfg.OptLevel, Defenses: []string{"care"}}
		bin, err := search.Build.Build()
		if err != nil {
			return nil, err
		}
		inj, err := cluster.FindRecoverableInjection(bin, cfg.Seed, search)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
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

// FormatParallel renders Figure 10 from the two jobs' VirtualTime and
// the faulty job's RecoveryStall, which RunJob reads off each job
// trace's KindJob and KindRankStall spans.
func FormatParallel(rows []ParallelRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Figure 10-style — parallel jobs on %d ranks (%d cores)\n",
			rows[0].Base.Ranks, rows[0].Base.Cores)
	}
	fmt.Fprintf(&sb, "%-10s %14s %14s %12s %10s %12s %9s\n",
		"Workload", "Normal", "Fault+CARE", "Stall", "Delta%", "@60s-job", "Survived")
	for _, r := range rows {
		base, faulty, stall := r.Base.VirtualTime, r.Faulty.VirtualTime, r.Faulty.RecoveryStall
		d := 0.0
		if base > 0 {
			d = float64(faulty-base) / float64(base) * 100
		}
		// The stall is an absolute cost; scaled to a realistic job
		// length (the paper's jobs run minutes) it vanishes.
		at60 := float64(stall) / float64(60*time.Second) * 100
		fmt.Fprintf(&sb, "%-10s %14s %14s %12s %9.3f%% %11.5f%% %9v\n",
			r.Workload, base.Round(time.Microsecond), faulty.Round(time.Microsecond),
			stall.Round(time.Microsecond), d, at60, r.Faulty.Completed)
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
		r, err := cluster.RunCheckpointRestart(w, p, 0, iv, faultStep)
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

// BLASStudy reproduces Table 9 (§5.5): experiment e against the
// CARE-protected BLAS library and its sblat1 driver, injecting into
// both images. The study sets only App, TargetImages and StoreKey and
// runs through shard.RunCoverage; e carries trials, model, seed,
// workers and the Safeguard configuration (zero value = the paper's).
func BLASStudy(opt int, e faultinject.CoverageExperiment) (*BLASRow, error) {
	build := shard.BuildSpec{Workload: "BLAS", OptLevel: opt, Defenses: []string{"care"}}
	drv, err := build.Build()
	if err != nil {
		return nil, err
	}
	lib := drv.Deps[0]
	e.App = drv
	e.TargetImages = []string{"sblat1", "libblas"}
	e.StoreKey = build.Key("coverage", e.Seed, e.WarmStart)
	res, err := shard.RunCoverage(&e, build)
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
