package experiments

import (
	"reflect"
	"strings"
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
