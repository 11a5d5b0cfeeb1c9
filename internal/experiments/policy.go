package experiments

import (
	"fmt"
	"strings"
	"time"

	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/parallel"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/workloads"
)

// PolicySpec names one Safeguard configuration in the escalation-policy
// study.
type PolicySpec struct {
	Name      string
	Safeguard safeguard.Config
}

// DefaultPolicySpecs is the study's standard four-way comparison:
//
//   - kill-on-failure: the paper's one-shot Safeguard — kernel recompute
//     or die.
//   - heuristic: recompute, then the LetGo-style bit-bucket patch (keeps
//     the process alive at the risk of SDCs).
//   - rollback-chain: recompute → induction repair → checkpoint rollback,
//     with the retry budget and storm detector armed; the Safeguard
//     restores from its own checkpoint store, with snapshot I/O priced
//     by checkpoint.WriteCost and ReadCost.
//   - domain-rewind-chain: the rollback chain with the domain-rewind
//     stage in front of whole-process rollback — rewind only the
//     faulting domain's memory, keeping registers and every other
//     domain's progress.
func DefaultPolicySpecs() []PolicySpec {
	return []PolicySpec{
		{Name: "kill-on-failure"},
		{Name: "heuristic", Safeguard: safeguard.Config{Heuristic: true}},
		{
			Name: "rollback-chain",
			Safeguard: safeguard.Config{
				InductionRecovery: true,
				Policy: safeguard.Policy{
					Rollback:      true,
					MaxTrapsPerPC: 8,
					StormTraps:    4,
				},
			},
		},
		DomainRewindSpec(safeguard.Policy{}),
	}
}

// DomainRewindSpec builds the domain-rewind-chain policy arm from a base
// policy (zero value = the study defaults): the full escalation chain
// with the domain-rewind stage enabled in front of whole-process
// rollback. The caller's budget fields (MaxRollbacks, MaxDomainRewinds)
// pass through; Rollback and DomainRewind are forced on and the circuit
// breakers default to the rollback-chain arm's settings so the two
// chains differ only in the extra stage.
func DomainRewindSpec(pol safeguard.Policy) PolicySpec {
	pol.Rollback = true
	pol.DomainRewind = true
	if pol.MaxTrapsPerPC == 0 {
		pol.MaxTrapsPerPC = 8
	}
	if pol.StormTraps == 0 {
		pol.StormTraps = 4
	}
	return PolicySpec{
		Name: "domain-rewind-chain",
		Safeguard: safeguard.Config{
			InductionRecovery: true,
			Policy:            pol,
		},
	}
}

// PolicyRow is one (workload, policy) cell of the study.
type PolicyRow struct {
	Workload string
	Policy   string
	Res      *faultinject.CoverageResult
}

// PolicyStudy compares recovery policies on identical fault campaigns:
// every policy examines the same injections (the trial set depends only
// on (seed, attempt index) and on the pre-trap execution, which no
// policy influences), so differences in recovery rate, SDC count and
// modelled stall are attributable to the policy alone. Each (workload,
// policy) cell copies experiment e and sets only its App, StoreKey and
// the policy's Safeguard, so e carries trials, faults per trial, model,
// seed, workers, tier, shards, store and heartbeat. Cells run
// concurrently on up to e.Workers goroutines and rows come back in
// (names, specs) order for any worker count; each cell's attempts
// spread over e.Shards shard workers (shard.RunCoverage). Results are
// bit-identical across tiers, worker and shard counts.
func PolicyStudy(names []string, opt int, p workloads.Params, specs []PolicySpec, e faultinject.CoverageExperiment) ([]PolicyRow, error) {
	if len(specs) == 0 {
		specs = DefaultPolicySpecs()
	}
	rows := make([]PolicyRow, len(names)*len(specs))
	progress := cellProgress(e.Progress, len(rows), e.Trials)
	err := parallel.ForEach(len(rows), e.Workers, func(i int) error {
		name, spec := names[i/len(specs)], specs[i%len(specs)]
		build := shard.BuildSpec{Workload: name, Params: p, OptLevel: opt, Defenses: []string{"care"}}
		bin, err := build.Build()
		if err != nil {
			return err
		}
		cell := e
		cell.App, cell.Safeguard, cell.Progress = bin, spec.Safeguard, progress[i]
		cell.StoreKey = build.Key("coverage", e.Seed, e.WarmStart, e.SnapEvery)
		res, err := shard.RunCoverage(&cell, build)
		if err != nil && res == nil {
			return fmt.Errorf("%s/%s: %w", name, spec.Name, err)
		}
		rows[i] = PolicyRow{Workload: name, Policy: spec.Name, Res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatPolicyStudy renders the escalation-policy comparison — every
// column is derived from each cell's merged trace counters (so a trace
// file alone reproduces the table). Stall is the summed recovery time
// of every recovered trial; CkptIO the modelled checkpoint-write time
// the policy paid for; LostDyn the virtual-clock work whole-process
// rollbacks discarded (domain rewinds discard none — the comparison the
// domain-rewind arm exists to make).
func FormatPolicyStudy(rows []PolicyRow) string {
	var sb strings.Builder
	sb.WriteString("Escalation-policy study — recovery rate vs SDC vs stall vs lost work\n")
	fmt.Fprintf(&sb, "%-10s %-19s %5s %5s %4s %9s %7s %6s %12s %9s %12s\n",
		"Workload", "Policy", "SEGV", "Recov", "SDC", "Coverage", "Rollbk", "DomRw", "Stall", "LostDyn", "CkptIO")
	for _, r := range rows {
		cnt := func(name string) int64 { return r.Res.Trace.Counter(name) }
		segv := cnt(faultinject.CounterExamined)
		recov := cnt(faultinject.CounterRecovered)
		cov := 0.0
		if segv > 0 {
			cov = 100 * float64(recov) / float64(segv)
		}
		stall := time.Duration(cnt(faultinject.CounterStallNs))
		ckptIO := time.Duration(cnt(checkpoint.CounterWriteNs))
		fmt.Fprintf(&sb, "%-10s %-19s %5d %5d %4d %8.1f%% %7d %6d %12s %9d %12s\n",
			r.Workload, r.Policy, segv, recov, cnt(faultinject.CounterSDC), cov,
			cnt(safeguard.CounterRolledBack), cnt(safeguard.CounterDomainRewinds),
			stall.Round(time.Microsecond), cnt(checkpoint.CounterLostDyn),
			ckptIO.Round(time.Microsecond))
	}
	return sb.String()
}
