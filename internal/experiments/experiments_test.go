package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"care/internal/faultinject"
	"care/internal/safeguard"
	"care/internal/workloads"
)

func TestOutcomeStudyAndFormat(t *testing.T) {
	rows, err := OutcomeStudy([]string{"HPCCG"}, 0, workloads.Params{},
		faultinject.Campaign{N: 25, Model: faultinject.SingleBit, Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatOutcomeTables(rows)
	for _, want := range []string{"Table 2-style", "Table 3-style", "Table 4-style", "HPCCG"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestOutcomeStudyWorkerDeterminism asserts the study level of the
// determinism guarantee: the whole multi-workload study is identical
// whether it runs serially or with per-CPU workers.
func TestOutcomeStudyWorkerDeterminism(t *testing.T) {
	names := []string{"HPCCG", "miniMD"}
	campaign := func(workers int) faultinject.Campaign {
		return faultinject.Campaign{N: 20, Model: faultinject.SingleBit, Seed: 3, Workers: workers, Trace: true}
	}
	serial, err := OutcomeStudy(names, 0, workloads.Params{}, campaign(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := OutcomeStudy(names, 0, workloads.Params{}, campaign(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("study differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, par)
	}
}

// TestStudyProgressCountsWholeStudy: a study's cells run concurrently,
// and its Progress hears the sums of their counts, not each cell's own:
// every report's total is the whole study's, done never falls back,
// and only the last report is complete.
func TestStudyProgressCountsWholeStudy(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	var reports [][2]int
	c := faultinject.Campaign{N: n, Model: faultinject.SingleBit, Seed: 3, Workers: 2, Progress: func(done, total int) {
		mu.Lock()
		reports = append(reports, [2]int{done, total})
		mu.Unlock()
	}}
	if _, err := OutcomeStudy([]string{"HPCCG", "miniMD"}, 0, workloads.Params{}, c); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	prev := 0
	for i, r := range reports {
		done, total := r[0], r[1]
		if total != 2*n {
			t.Fatalf("report %d: total %d, want %d (both cells)", i, total, 2*n)
		}
		if done < prev {
			t.Fatalf("report %d: done fell from %d to %d", i, prev, done)
		}
		if last := i == len(reports)-1; (done == total) != last {
			t.Fatalf("report %d of %d: %d/%d; only the last report may be complete", i+1, len(reports), done, total)
		}
		prev = done
	}
}

func TestCensusStudyCoversAllWorkloads(t *testing.T) {
	rows := CensusStudy(workloads.Params{})
	if len(rows) != len(workloads.All()) {
		t.Fatalf("%d census rows for %d workloads", len(rows), len(workloads.All()))
	}
	out := FormatCensus(rows)
	for _, w := range workloads.All() {
		if !strings.Contains(out, w.Name) {
			t.Errorf("census missing %s", w.Name)
		}
	}
}

func TestArmorStudyEvaluatedSet(t *testing.T) {
	rows, err := ArmorStudy(0, workloads.Params{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.Evaluated()) {
		t.Fatalf("%d rows, want %d", len(rows), len(workloads.Evaluated()))
	}
	for _, r := range rows {
		if r.Kernels == 0 || r.TableBytes == 0 || r.LibBytes == 0 {
			t.Errorf("%s: empty artifacts %+v", r.Workload, r)
		}
	}
	if !strings.Contains(FormatArmor(rows), "Table 8-style") {
		t.Error("format header missing")
	}
}

func TestCoverageStudySmoke(t *testing.T) {
	rows, err := CoverageStudy([]string{"HPCCG"}, workloads.Params{},
		faultinject.CoverageExperiment{Trials: 10, Model: faultinject.SingleBit, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // O0 and O1
		t.Fatalf("%d coverage rows", len(rows))
	}
	out := FormatCoverage(rows)
	if !strings.Contains(out, "average coverage") {
		t.Error("missing average line")
	}
}

// TestBLASStudySmoke runs Table 9 with a non-default Safeguard
// configuration (the care-coverage -blas -induction path): every
// column, the build times included, must be filled in.
func TestBLASStudySmoke(t *testing.T) {
	row, err := BLASStudy(0, faultinject.CoverageExperiment{
		Trials: 10, Seed: 3, Safeguard: safeguard.Config{InductionRecovery: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.LibKernels == 0 || row.DriverKernels == 0 {
		t.Fatalf("missing kernels: %+v", row)
	}
	if row.LibCompile <= 0 || row.LibArmor <= 0 || row.DriverCompile <= 0 || row.DriverArmor <= 0 {
		t.Fatalf("Table 9 build times not all measured: %+v", row)
	}
	if !strings.Contains(FormatBLAS(row), "libblas") {
		t.Error("format missing libblas row")
	}
}

func TestNameHelpers(t *testing.T) {
	if len(EvaluatedNames()) != 4 {
		t.Errorf("evaluated names: %v", EvaluatedNames())
	}
	if len(AllNames()) != 5 {
		t.Errorf("all names: %v", AllNames())
	}
}
