package experiments

import (
	"strings"
	"testing"

	"care/internal/faultinject"
	"care/internal/workloads"
)

// TestPolicyStudyRollbackBeatsKill is the study's acceptance criterion:
// on the same campaign (identical injections, same examined trials),
// the escalation chain with rollback recovers strictly more trials than
// the paper's kill-on-failure runtime on at least one workload, without
// adding silent data corruptions.
func TestPolicyStudyRollbackBeatsKill(t *testing.T) {
	names := []string{"HPCCG", "GTC-P"}
	rows, err := PolicyStudy(names, 0, workloads.Params{}, DefaultPolicySpecs(),
		faultinject.CoverageExperiment{Trials: 20, Model: faultinject.SingleBit, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]PolicyRow{}
	for _, r := range rows {
		byCell[r.Workload+"/"+r.Policy] = r
	}
	improved := false
	for _, name := range names {
		kill := byCell[name+"/kill-on-failure"].Res
		chain := byCell[name+"/rollback-chain"].Res
		if kill == nil || chain == nil {
			t.Fatalf("%s: missing policy rows", name)
		}
		if kill.SigsegvTrials != chain.SigsegvTrials {
			t.Errorf("%s: trial sets diverge between policies: %d vs %d SIGSEGV trials",
				name, kill.SigsegvTrials, chain.SigsegvTrials)
		}
		if chain.Recovered < kill.Recovered {
			t.Errorf("%s: rollback chain recovered fewer trials (%d) than kill-on-failure (%d)",
				name, chain.Recovered, kill.Recovered)
		}
		if chain.Recovered > kill.Recovered && chain.SDCs() <= kill.SDCs() {
			improved = true
		}
	}
	if !improved {
		for _, r := range rows {
			t.Logf("%s/%s: segv=%d recovered=%d sdc=%d rollbacks=%d",
				r.Workload, r.Policy, r.Res.SigsegvTrials, r.Res.Recovered, r.Res.SDCs(), r.Res.Rollbacks)
		}
		t.Fatal("rollback chain did not strictly improve recovery on any workload without adding SDCs")
	}
}

// TestPolicyStudyWorkerDeterminism: the whole policy grid is identical
// whether it runs serially or with 8 workers (the trial sets, outcomes
// and counters all derive from (seed, attempt index) only).
func TestPolicyStudyWorkerDeterminism(t *testing.T) {
	run := func(workers int) []PolicyRow {
		rows, err := PolicyStudy([]string{"HPCCG"}, 0, workloads.Params{}, nil, faultinject.CoverageExperiment{
			Trials: 8, FaultsPerTrial: 2, Model: faultinject.SingleBit, Seed: 5, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, par := run(1), run(8)
	if len(serial) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		a, b := serial[i].Res, par[i].Res
		if a.Attempts != b.Attempts || a.SigsegvTrials != b.SigsegvTrials ||
			a.Recovered != b.Recovered || a.CleanRecovered != b.CleanRecovered ||
			a.Rollbacks != b.Rollbacks || a.CheckpointIO != b.CheckpointIO ||
			len(a.Events) != len(b.Events) {
			t.Errorf("%s/%s differs between workers=1 and workers=8:\n%+v\nvs\n%+v",
				serial[i].Workload, serial[i].Policy, a, b)
		}
		for j := range a.Events {
			if a.Events[j].Outcome != b.Events[j].Outcome {
				t.Errorf("%s/%s event %d outcome %s vs %s", serial[i].Workload,
					serial[i].Policy, j, a.Events[j].Outcome, b.Events[j].Outcome)
			}
		}
	}
}

func TestFormatPolicyStudy(t *testing.T) {
	rows, err := PolicyStudy([]string{"HPCCG"}, 0, workloads.Params{}, nil,
		faultinject.CoverageExperiment{Trials: 5, Model: faultinject.SingleBit, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPolicyStudy(rows)
	for _, want := range []string{"Escalation-policy study", "kill-on-failure", "heuristic", "rollback-chain", "domain-rewind-chain"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
