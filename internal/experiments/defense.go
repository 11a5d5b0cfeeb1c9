package experiments

import (
	"fmt"
	"strings"
	"time"

	"care/internal/core"
	"care/internal/defense"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/workloads"
)

// DefenseArm is one bake-off configuration: a display name plus the
// defense list it builds with (nil = the undefended baseline).
type DefenseArm struct {
	Name     string
	Defenses []string
}

// DefenseArms returns the bake-off grid: no defense, CARE repair, the
// two detection rivals, and the repair+detect composition.
func DefenseArms() []DefenseArm {
	return []DefenseArm{
		{"none", nil},
		{"care", []string{"care"}},
		{"presage", []string{"presage"}},
		{"sfi", []string{"sfi"}},
		{"care+presage", []string{"care", "presage"}},
	}
}

// DefenseCell is one (workload, arm) result of the bake-off.
type DefenseCell struct {
	Workload string
	Arm      string
	// Res is the arm's injection campaign. Every deterministic figure
	// below derives from its merged trace, so cells are bit-identical
	// across worker counts.
	Res *faultinject.CampaignResult
	// CodeInstrs is the built image size in machine instructions;
	// growth is reported against the workload's none arm.
	CodeInstrs int
	// InsertedInstrs sums the IR check instructions the arm's detection
	// passes added; Kernels counts a repair pass's recovery kernels.
	InsertedInstrs int
	Kernels        int
	// Rates holds the wall-measured golden-run throughput per
	// interpreter tier in Minstr/s. Wall-based: reported beside the
	// deterministic columns but excluded from every determinism claim
	// (nil when the study runs with rates disabled).
	Rates map[machine.InterpTier]float64
}

// Detected counts fail-stop trials: soft failures whose symptom is the
// deterministic SIGTRAP of a detection pass.
func (c *DefenseCell) Detected() int {
	return c.Res.Symptoms[machine.SigTRAP]
}

// Crashes counts undetected soft failures (raw SIGSEGV/SIGBUS/...).
func (c *DefenseCell) Crashes() int {
	return c.Res.Outcomes[faultinject.SoftFailure] - c.Detected()
}

// Recovered counts Safeguard repairs across the campaign (activation
// outcomes recovered / recovered-induction, from the merged trace).
func (c *DefenseCell) Recovered() int {
	return int(c.Res.Trace.Counter(safeguard.CounterRecovered))
}

// Coverage is the arm's protection ratio: faults it repaired or
// flagged over all faults that needed attention (repaired + flagged +
// undetected crashes + SDCs). The undefended arm scores 0 by
// construction.
func (c *DefenseCell) Coverage() float64 {
	good := c.Recovered() + c.Detected()
	bad := c.Crashes() + c.Res.Outcomes[faultinject.SDC]
	if good+bad == 0 {
		return 0
	}
	return float64(good) / float64(good+bad)
}

// SDCRate is the silent-data-corruption fraction of the campaign.
func (c *DefenseCell) SDCRate() float64 {
	return float64(c.Res.Outcomes[faultinject.SDC]) / float64(c.Res.N)
}

// DefenseNames returns the bake-off's default target list: the five
// evaluated mini-apps plus the BLAS library driver.
func DefenseNames() []string {
	return append(EvaluatedNames(), "BLAS")
}

// DefenseStudy runs the rival-defense bake-off: every arm (nil =
// DefenseArms) builds every named workload ("BLAS" included; see
// shard.BuildSpec) and faces a copy of campaign c (same seed, same
// fault model, same trial RNG streams), so the arms differ only in the
// defense under test. Each cell sets only the campaign's App, StoreKey
// and Protected, which attaches the Safeguard (configured by
// c.Safeguard) to defended arms, and runs through shard.RunCampaign
// like every other study. Under the paper's one-shot policy (the zero
// c.Safeguard) a detection trap is a fail-stop and CARE repairs in
// place — the paper's configurations. Cells come back in (names, arms)
// order and are bit-identical for every c.Workers and c.Shards value;
// c.Trace additionally keeps machine-level trap stamps.
//
// measureRates adds the wall-clock golden-run throughput per
// interpreter tier (DefenseCell.Rates) — wall-based and excluded from
// the determinism contract; leave it off for byte-diff runs.
func DefenseStudy(names []string, arms []DefenseArm, opt int, p workloads.Params, c faultinject.Campaign, measureRates bool) ([]DefenseCell, error) {
	if len(arms) == 0 {
		arms = DefenseArms()
	}
	cells := make([]DefenseCell, 0, len(names)*len(arms))
	progress := cellProgress(c.Progress, cap(cells), c.N)
	for _, name := range names {
		for _, arm := range arms {
			build := shard.BuildSpec{Workload: name, Params: p, OptLevel: opt, Defenses: arm.Defenses}
			app, err := build.Build()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, arm.Name, err)
			}
			cell := DefenseCell{
				Workload:   name,
				Arm:        arm.Name,
				CodeInstrs: len(app.Prog.Code),
			}
			for _, b := range append([]*core.Binary{app}, app.Deps...) {
				for _, s := range b.DefenseStats {
					cell.InsertedInstrs += s.InsertedInstrs
					cell.Kernels += s.NumKernels
				}
			}
			camp := c
			camp.App, camp.Protected = app, app.Defended()
			camp.Progress = progress[len(cells)]
			camp.StoreKey = build.Key("campaign", c.Seed, c.WarmStart, c.SnapEvery)
			res, err := shard.RunCampaign(&camp, build)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, arm.Name, err)
			}
			cell.Res = res
			if measureRates {
				cell.Rates = map[machine.InterpTier]float64{}
				for _, tier := range machine.Tiers() {
					rate, err := goldenRate(app, tier)
					if err != nil {
						return nil, fmt.Errorf("%s/%s %s: %w", name, arm.Name, tier, err)
					}
					cell.Rates[tier] = rate
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// DefenseBuildRow is one (workload, pass) line of the care-compile
// -defense build table.
type DefenseBuildRow struct {
	Workload string
	Stats    defense.Stats
	// CodeInstrs and CompileTime describe the whole binary (repeated on
	// every pass row of a multi-pass build).
	CodeInstrs  int
	CompileTime time.Duration
}

// DefenseBuildStudy builds every workload under one defense list and
// reports per-pass instrumentation statistics — the policy-agnostic
// counterpart of ArmorStudy's Table 8.
func DefenseBuildStudy(defenses []string, opt int, p workloads.Params, evaluatedOnly bool) ([]DefenseBuildRow, error) {
	ws := workloads.All()
	if evaluatedOnly {
		ws = workloads.Evaluated()
	}
	var rows []DefenseBuildRow
	for _, w := range ws {
		bin, err := core.Build(w.Module(p), core.BuildOptions{OptLevel: opt, Defenses: defenses})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, name := range defenses {
			rows = append(rows, DefenseBuildRow{
				Workload:    w.Name,
				Stats:       bin.DefenseStats[name],
				CodeInstrs:  len(bin.Prog.Code),
				CompileTime: bin.CompileTime,
			})
		}
	}
	return rows, nil
}

// FormatDefenseBuild renders the per-pass build statistics.
func FormatDefenseBuild(rows []DefenseBuildRow) string {
	var sb strings.Builder
	sb.WriteString("Defense build statistics per pass\n")
	fmt.Fprintf(&sb, "%-10s %-9s %9s %10s %8s %7s %8s %10s %14s\n",
		"Workload", "Pass", "Accesses", "Protected", "Skipped", "Checks", "Kernels", "CodeInstr", "PassTime")
	for _, r := range rows {
		s := r.Stats
		fmt.Fprintf(&sb, "%-10s %-9s %9d %10d %8d %7d %8d %10d %14s\n",
			r.Workload, s.Pass, s.NumMemAccesses, s.Protected, s.Skipped,
			s.InsertedInstrs, s.NumKernels, r.CodeInstrs,
			s.TotalTime.Round(time.Microsecond))
	}
	return sb.String()
}

// goldenRate measures one fault-free run's throughput in Minstr/s on
// the given tier (wall-based; report-only).
func goldenRate(app *core.Binary, tier machine.InterpTier) (float64, error) {
	proc, err := core.NewProcess(core.ProcessConfig{App: app, Tier: tier})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	status := proc.Run(0)
	elapsed := time.Since(t0)
	if status != machine.StatusExited {
		return 0, fmt.Errorf("golden run ended %v", status)
	}
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(proc.CPU.Dyn) / 1e6 / elapsed.Seconds(), nil
}

// FormatDefenseStudy renders the bake-off. The outcome and cost tables
// are fully deterministic (trace-derived); the throughput table is
// wall-measured and flagged as such.
func FormatDefenseStudy(cells []DefenseCell) string {
	var sb strings.Builder
	sb.WriteString("Rival-defense bake-off — identical campaigns per arm\n")
	fmt.Fprintf(&sb, "%-10s %-13s %7s %7s %9s %6s %5s %10s %9s %7s\n",
		"Workload", "Defense", "Benign", "Crash", "Detected", "SDC", "Hang", "Recovered", "Coverage", "SDC%")
	none := map[string]*DefenseCell{}
	for i := range cells {
		if cells[i].Arm == "none" {
			none[cells[i].Workload] = &cells[i]
		}
	}
	for i := range cells {
		c := &cells[i]
		o := c.Res.Outcomes
		fmt.Fprintf(&sb, "%-10s %-13s %7d %7d %9d %6d %5d %10d %8.1f%% %6.2f%%\n",
			c.Workload, c.Arm, o[faultinject.Benign], c.Crashes(), c.Detected(),
			o[faultinject.SDC], o[faultinject.Hang], c.Recovered(),
			100*c.Coverage(), 100*c.SDCRate())
	}
	sb.WriteString("\nStatic and dynamic cost per arm (vs the none arm)\n")
	fmt.Fprintf(&sb, "%-10s %-13s %10s %8s %12s %8s %8s %8s\n",
		"Workload", "Defense", "CodeInstr", "Growth%", "GoldenDyn", "DynOvh%", "Kernels", "Checks")
	for i := range cells {
		c := &cells[i]
		growth, dynOvh := 0.0, 0.0
		if b := none[c.Workload]; b != nil {
			if b.CodeInstrs > 0 {
				growth = 100 * (float64(c.CodeInstrs)/float64(b.CodeInstrs) - 1)
			}
			if b.Res.GoldenDyn > 0 {
				dynOvh = 100 * (float64(c.Res.GoldenDyn)/float64(b.Res.GoldenDyn) - 1)
			}
		}
		fmt.Fprintf(&sb, "%-10s %-13s %10d %7.1f%% %12d %7.1f%% %8d %8d\n",
			c.Workload, c.Arm, c.CodeInstrs, growth, c.Res.GoldenDyn, dynOvh,
			c.Kernels, c.InsertedInstrs)
	}
	if len(cells) > 0 && cells[0].Rates != nil {
		sb.WriteString("\nGolden-run throughput, Minstr/s per tier (wall-measured — excluded from determinism)\n")
		fmt.Fprintf(&sb, "%-10s %-13s", "Workload", "Defense")
		for _, tier := range machine.Tiers() {
			fmt.Fprintf(&sb, " %12s", tier)
		}
		sb.WriteByte('\n')
		for i := range cells {
			c := &cells[i]
			fmt.Fprintf(&sb, "%-10s %-13s", c.Workload, c.Arm)
			for _, tier := range machine.Tiers() {
				fmt.Fprintf(&sb, " %12.2f", c.Rates[tier])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
