package defense_test

import (
	"fmt"
	"testing"

	"care/internal/blas"
	"care/internal/core"
	"care/internal/defense"
	"care/internal/machine"
	"care/internal/progen"
	"care/internal/workloads"
)

// rivalLists are the defense configurations the differential suite
// checks against an undefended build: every registered pass alone plus
// the repair+detect composition.
var rivalLists = [][]string{
	{"none"},
	{"care"},
	{"presage"},
	{"sfi"},
	{"care", "presage"},
}

func listName(l []string) string {
	s := l[0]
	for _, n := range l[1:] {
		s += "+" + n
	}
	return s
}

type runOutput struct {
	status  machine.RunStatus
	exit    int64
	results []float64
	printed []string
}

func run(t *testing.T, bin *core.Binary, tier machine.InterpTier) runOutput {
	t.Helper()
	p, err := core.NewProcess(core.ProcessConfig{App: bin, Tier: tier})
	if err != nil {
		t.Fatal(err)
	}
	status := p.Run(0)
	return runOutput{
		status:  status,
		exit:    int64(p.CPU.ExitCode),
		results: append([]float64(nil), p.Results()...),
		printed: append([]string(nil), p.Env.Printed...),
	}
}

// requireSameOutput asserts a defended run is observationally identical
// to the undefended golden run: same termination, same exit code, same
// result stream, same printed output. Dyn deliberately differs (the
// checks retire instructions).
func requireSameOutput(t *testing.T, label string, got, want runOutput) {
	t.Helper()
	if got.status != want.status {
		t.Fatalf("%s: status %v, undefended %v", label, got.status, want.status)
	}
	if got.exit != want.exit {
		t.Fatalf("%s: exit %d, undefended %d", label, got.exit, want.exit)
	}
	if len(got.results) != len(want.results) {
		t.Fatalf("%s: %d results, undefended %d", label, len(got.results), len(want.results))
	}
	for i := range got.results {
		if got.results[i] != want.results[i] {
			t.Fatalf("%s: result[%d] = %v, undefended %v", label, i, got.results[i], want.results[i])
		}
	}
	if len(got.printed) != len(want.printed) {
		t.Fatalf("%s: %d printed lines, undefended %d", label, len(got.printed), len(want.printed))
	}
	for i := range got.printed {
		if got.printed[i] != want.printed[i] {
			t.Fatalf("%s: printed[%d] = %q, undefended %q", label, i, got.printed[i], want.printed[i])
		}
	}
}

// TestDefensesPreserveWorkloadSemantics is the fault-free differential
// suite over the evaluated mini-apps: every defense configuration must
// leave golden-run output identical to the undefended build on every
// interpreter tier.
func TestDefensesPreserveWorkloadSemantics(t *testing.T) {
	for _, w := range workloads.Evaluated() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			golden, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := run(t, golden, machine.TierSuperblock)
			if want.status != machine.StatusExited {
				t.Fatalf("undefended golden run did not exit: %v", want.status)
			}
			for _, defs := range rivalLists {
				bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 1, Defenses: defs})
				if err != nil {
					t.Fatalf("%s: %v", listName(defs), err)
				}
				for _, tier := range machine.Tiers() {
					label := fmt.Sprintf("%s/%s", listName(defs), tier)
					requireSameOutput(t, label, run(t, bin, tier), want)
				}
			}
		})
	}
}

// TestDefensesPreserveBLASSemantics covers the shared-library build
// path (IsLib segment classification in SFI, library armor in CARE).
func TestDefensesPreserveBLASSemantics(t *testing.T) {
	glib, err := core.BuildLib(blas.Library(), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gdrv, err := core.Build(blas.Sblat1(4), core.BuildOptions{OptLevel: 1}, glib)
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, gdrv, machine.TierSuperblock)
	if want.status != machine.StatusExited {
		t.Fatalf("undefended golden run did not exit: %v", want.status)
	}
	for _, defs := range rivalLists {
		lib, err := core.BuildLib(blas.Library(), 1, 0, defs)
		if err != nil {
			t.Fatalf("%s: lib: %v", listName(defs), err)
		}
		drv, err := core.Build(blas.Sblat1(4), core.BuildOptions{OptLevel: 1, Defenses: defs}, lib)
		if err != nil {
			t.Fatalf("%s: drv: %v", listName(defs), err)
		}
		for _, tier := range machine.Tiers() {
			label := fmt.Sprintf("%s/%s", listName(defs), tier)
			requireSameOutput(t, label, run(t, drv, tier), want)
		}
	}
}

// TestDefensesPreserveProgenSemantics sweeps generated programs — the
// adversarial IR shapes (irregular chains, odd phis) hand-written
// workloads miss.
func TestDefensesPreserveProgenSemantics(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, opt := range []int{0, 1} {
				golden, err := core.Build(progen.Generate(seed, progen.Options{}), core.BuildOptions{OptLevel: opt})
				if err != nil {
					t.Fatal(err)
				}
				want := run(t, golden, machine.TierStep)
				for _, defs := range rivalLists {
					bin, err := core.Build(progen.Generate(seed, progen.Options{}), core.BuildOptions{OptLevel: opt, Defenses: defs})
					if err != nil {
						t.Fatalf("O%d %s: %v", opt, listName(defs), err)
					}
					for _, tier := range machine.Tiers() {
						label := fmt.Sprintf("O%d/%s/%s", opt, listName(defs), tier)
						requireSameOutput(t, label, run(t, bin, tier), want)
					}
				}
			}
		})
	}
}

// TestDetectionPassStats pins the instrumentation bookkeeping: the
// detection passes must cover accesses, insert provenance-stamped
// instructions, and mark the binary as detecting.
func TestDetectionPassStats(t *testing.T) {
	for _, name := range []string{"presage", "sfi"} {
		w, err := workloads.Get("HPCCG")
		if err != nil {
			t.Fatal(err)
		}
		bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 1, Defenses: []string{name}})
		if err != nil {
			t.Fatal(err)
		}
		s, ok := bin.DefenseStats[name]
		if !ok {
			t.Fatalf("%s: no DefenseStats entry", name)
		}
		if s.NumMemAccesses == 0 || s.Protected == 0 || s.InsertedInstrs == 0 {
			t.Fatalf("%s: empty stats %+v", name, s)
		}
		if s.ProvenanceCol >= 0 {
			t.Fatalf("%s: provenance column %d not negative", name, s.ProvenanceCol)
		}
		if defense.PassForProvenance(s.ProvenanceCol) != name {
			t.Fatalf("%s: provenance column %d does not round-trip", name, s.ProvenanceCol)
		}
		if !bin.Detects {
			t.Fatalf("%s: binary not marked as detecting", name)
		}
		if bin.Protected() {
			t.Fatalf("%s: detection-only binary carries a recovery table", name)
		}
		// SFI mediates every access; PRESAGE skips the chainless ones.
		if name == "sfi" && s.Skipped != 0 {
			t.Fatalf("sfi skipped %d accesses", s.Skipped)
		}
		undef, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(bin.Prog.Code) <= len(undef.Prog.Code) {
			t.Fatalf("%s: no binary growth (%d vs %d)", name, len(bin.Prog.Code), len(undef.Prog.Code))
		}
	}
}
