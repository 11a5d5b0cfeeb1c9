package blas

import (
	"math"
	"testing"

	"care/internal/core"
	"care/internal/defense"
	"care/internal/faultinject"
	"care/internal/interp"
	"care/internal/machine"
)

// buildPair compiles libblas + sblat1 with (or without) CARE.
func buildPair(t testing.TB, opt int, protected bool) (lib, drv *core.Binary) {
	t.Helper()
	lib, err := core.BuildLib(Library(), opt, 0, []string{"care"})
	if err != nil {
		t.Fatalf("build libblas: %v", err)
	}
	if !protected {
		l2, err := core.Build(Library(), core.BuildOptions{OptLevel: opt, IsLib: true})
		if err != nil {
			t.Fatal(err)
		}
		lib = l2
	}
	drv, err = core.Build(Sblat1(5), core.BuildOptions{OptLevel: opt, Defenses: defense.If(protected, "care")}, lib)
	if err != nil {
		t.Fatalf("build sblat1: %v", err)
	}
	return lib, drv
}

// runPair runs the driver with the library it was linked against (its
// Deps).
func runPair(t testing.TB, drv *core.Binary, protected bool) (*core.Process, machine.RunStatus) {
	t.Helper()
	p, err := core.NewProcess(core.ProcessConfig{App: drv, Protected: protected})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(200_000_000)
	return p, st
}

func TestSblat1Differential(t *testing.T) {
	want, err := interp.Run(1<<30, Sblat1(5), Library())
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if len(want) < 40 {
		t.Fatalf("driver produced only %d results", len(want))
	}
	for _, v := range want {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite driver result: %v", want)
		}
	}
	for _, opt := range []int{0, 1} {
		_, drv := buildPair(t, opt, false)
		p, st := runPair(t, drv, false)
		if st != machine.StatusExited {
			t.Fatalf("O%d: %v (%v)", opt, st, p.CPU.PendingTrap)
		}
		got := p.Results()
		if len(got) != len(want) {
			t.Fatalf("O%d: %d results, want %d", opt, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("O%d: result[%d] = %v, want %v", opt, i, got[i], want[i])
			}
		}
	}
	t.Logf("sblat1 produces %d checked values", len(want))
}

// TestReferenceValues spot-checks routine semantics against independent
// Go implementations.
func TestReferenceValues(t *testing.T) {
	_, drv := buildPair(t, 0, false)
	p, st := runPair(t, drv, false)
	if st != machine.StatusExited {
		t.Fatal(st)
	}
	got := p.Results()
	// Recompute the first combo's sdot/sasum/snrm2/isamax in Go.
	rng := seededData(5)
	const vlen = 40
	xs := make([]float64, vlen)
	ys := make([]float64, vlen)
	for i := 0; i < vlen; i++ {
		xs[i] = 2*rng() - 1
		ys[i] = 2*rng() - 1
	}
	// combo{0,1,1}: n=0 -> sdot=0 sasum=0 snrm2=0 isamax=0.
	if got[0] != 0 || got[1] != 0 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("n=0 combo results nonzero: %v", got[:4])
	}
	// combo{1,1,2}: n=1.
	if got[9] != xs[0]*ys[0] {
		t.Errorf("sdot(n=1) = %v, want %v", got[9], xs[0]*ys[0])
	}
	if got[10] != math.Abs(xs[0]) {
		t.Errorf("sasum(n=1) = %v, want %v", got[10], math.Abs(xs[0]))
	}
	if math.Abs(got[11]-math.Abs(xs[0])) > 1e-15 {
		t.Errorf("snrm2(n=1) = %v, want %v", got[11], math.Abs(xs[0]))
	}
	if got[12] != 1 {
		t.Errorf("isamax(n=1) = %v, want 1", got[12])
	}
	// combo{5,1,1}: full checks.
	var dot, asum, nrm2 float64
	best, bestAbs := 0, -1.0
	for i := 0; i < 5; i++ {
		dot += xs[i] * ys[i]
		asum += math.Abs(xs[i])
		nrm2 += xs[i] * xs[i]
		if math.Abs(xs[i]) > bestAbs {
			bestAbs = math.Abs(xs[i])
			best = i + 1
		}
	}
	if got[18] != dot {
		t.Errorf("sdot(n=5) = %v, want %v", got[18], dot)
	}
	if got[19] != asum {
		t.Errorf("sasum(n=5) = %v, want %v", got[19], asum)
	}
	if math.Abs(got[20]-math.Sqrt(nrm2)) > 1e-15 {
		t.Errorf("snrm2(n=5) = %v, want %v", got[20], math.Sqrt(nrm2))
	}
	if got[21] != float64(best) {
		t.Errorf("isamax(n=5) = %v, want %d", got[21], best)
	}
}

// TestBLASCoverage reproduces Table 9: faults injected into both the
// library and the driver, recovered by per-image recovery tables.
func TestBLASCoverage(t *testing.T) {
	lib, drv := buildPair(t, 0, true)
	if lib.DefenseStats["care"].NumKernels == 0 || drv.DefenseStats["care"].NumKernels == 0 {
		t.Fatalf("missing kernels: lib=%d drv=%d", lib.DefenseStats["care"].NumKernels, drv.DefenseStats["care"].NumKernels)
	}
	exp := &faultinject.CoverageExperiment{
		App:          drv,
		TargetImages: []string{"sblat1", "libblas"},
		Trials:       30, Seed: 99,
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatalf("%v (res %+v)", err, res)
	}
	t.Logf("BLAS: attempts=%d segv=%d recovered=%d coverage=%.1f%% mean=%v",
		res.Attempts, res.SigsegvTrials, res.Recovered, 100*res.Coverage(), res.MeanRecoveryTime())
	if res.Coverage() < 0.4 {
		t.Errorf("BLAS coverage %.2f far below the paper's 83%%", res.Coverage())
	}
}
