package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"care/internal/faultinject"
	"care/internal/trace"
	"care/internal/workloads"
)

func defenseCell(t *testing.T, cells []DefenseCell, workload, arm string) *DefenseCell {
	t.Helper()
	for i := range cells {
		if cells[i].Workload == workload && cells[i].Arm == arm {
			return &cells[i]
		}
	}
	t.Fatalf("no cell %s/%s", workload, arm)
	return nil
}

func TestDefenseStudySmoke(t *testing.T) {
	cells, err := DefenseStudy([]string{"HPCCG"}, nil, 0, workloads.Params{},
		faultinject.Campaign{N: 60, Model: faultinject.SingleBit, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(DefenseArms()) {
		t.Fatalf("%d cells for %d arms", len(cells), len(DefenseArms()))
	}
	none := defenseCell(t, cells, "HPCCG", "none")
	if none.Recovered() != 0 || none.Detected() != 0 || none.Coverage() != 0 {
		t.Fatalf("undefended arm reports protection: %+v", none)
	}
	care := defenseCell(t, cells, "HPCCG", "care")
	if care.Recovered() == 0 {
		t.Fatalf("care arm recovered nothing (outcomes %v)", care.Res.Outcomes)
	}
	if care.Kernels == 0 {
		t.Fatal("care arm built no kernels")
	}
	for _, arm := range []string{"presage", "sfi"} {
		c := defenseCell(t, cells, "HPCCG", arm)
		if c.Detected() == 0 {
			t.Fatalf("%s arm detected nothing (outcomes %v symptoms %v)", arm, c.Res.Outcomes, c.Res.Symptoms)
		}
		if c.InsertedInstrs == 0 {
			t.Fatalf("%s arm inserted no checks", arm)
		}
		if c.CodeInstrs <= none.CodeInstrs {
			t.Fatalf("%s arm shows no binary growth", arm)
		}
	}
	both := defenseCell(t, cells, "HPCCG", "care+presage")
	if both.Kernels == 0 || both.InsertedInstrs == 0 {
		t.Fatalf("care+presage arm missing kernels (%d) or checks (%d)", both.Kernels, both.InsertedInstrs)
	}
	out := FormatDefenseStudy(cells)
	for _, want := range []string{"bake-off", "none", "care+presage", "sfi", "Coverage", "Growth%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Minstr/s") {
		t.Error("rate table rendered although rates were disabled")
	}
}

var wallScrub = regexp.MustCompile(`"wall_ns":-?\d+`)
var nsCounterScrub = regexp.MustCompile(`("name":"[a-z.-]+-ns","value":)-?\d+`)

// scrubTrace renders a trace with the wall-measured fields zeroed —
// the same scrub the CI byte-diffs apply.
func scrubTrace(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s := wallScrub.ReplaceAllString(buf.String(), `"wall_ns":0`)
	return nsCounterScrub.ReplaceAllString(s, "${1}0")
}

// TestDefenseStudyWorkerDeterminism pins the acceptance criterion:
// every arm's campaign — including the safeguard activity merged into
// its trace — is bit-identical across worker counts once the
// wall-measured fields are scrubbed.
func TestDefenseStudyWorkerDeterminism(t *testing.T) {
	run := func(workers int) []DefenseCell {
		cells, err := DefenseStudy([]string{"HPCCG"}, nil, 0, workloads.Params{},
			faultinject.Campaign{N: 30, Model: faultinject.SingleBit, Seed: 7, Workers: workers, Trace: true}, false)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	serial, par := run(1), run(6)
	if FormatDefenseStudy(serial) != FormatDefenseStudy(par) {
		t.Fatalf("report differs between workers=1 and workers=6:\n%s\nvs\n%s",
			FormatDefenseStudy(serial), FormatDefenseStudy(par))
	}
	for i := range serial {
		a, b := scrubTrace(t, serial[i].Res.Trace), scrubTrace(t, par[i].Res.Trace)
		if a != b {
			t.Fatalf("%s/%s: scrubbed trace differs between worker counts",
				serial[i].Workload, serial[i].Arm)
		}
	}
}

// TestDefenseStudyBLASTarget covers the shared-library arm of the
// bake-off grid (library + driver both defended).
func TestDefenseStudyBLASTarget(t *testing.T) {
	cells, err := DefenseStudy([]string{"BLAS"}, nil, 0, workloads.Params{},
		faultinject.Campaign{N: 20, Model: faultinject.SingleBit, Seed: 9}, false)
	if err != nil {
		t.Fatal(err)
	}
	care := defenseCell(t, cells, "BLAS", "care")
	if care.Kernels == 0 {
		t.Fatal("BLAS care arm built no kernels")
	}
	sfi := defenseCell(t, cells, "BLAS", "sfi")
	if sfi.InsertedInstrs == 0 {
		t.Fatal("BLAS sfi arm inserted no checks")
	}
}
