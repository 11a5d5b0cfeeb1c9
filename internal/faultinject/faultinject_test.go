package faultinject

import (
	"strings"
	"testing"

	"care/internal/core"
	"care/internal/defense"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/workloads"
)

func buildWorkload(t testing.TB, name string, opt int, protected bool) *core.Binary {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{OptLevel: opt, Defenses: defense.If(protected, "care")})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestCampaignHPCCG(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	c := &Campaign{App: bin, N: 120, Model: SingleBit, Seed: 42}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Outcomes {
		total += n
	}
	if total != c.N {
		t.Fatalf("outcome total %d != N %d", total, c.N)
	}
	if res.Outcomes[SoftFailure] == 0 {
		t.Fatal("no soft failures observed; injection is not reaching address paths")
	}
	if res.Outcomes[Benign] == 0 {
		t.Error("no benign outcomes; fault model too aggressive")
	}
	if res.Symptoms[machine.SigSEGV] == 0 {
		t.Fatal("no SIGSEGV symptoms")
	}
	segvFrac := float64(res.Symptoms[machine.SigSEGV]) / float64(res.Outcomes[SoftFailure])
	if segvFrac < 0.5 {
		t.Errorf("SIGSEGV fraction %.2f of soft failures; paper reports >0.72", segvFrac)
	}
	b := res.LatencyBuckets()
	t.Logf("outcomes=%v symptoms=%v latency buckets=%v", res.Outcomes, res.Symptoms, b)
	if b[0]+b[1] == 0 {
		t.Error("no low-latency manifestations; paper reports >83% within 50 instructions")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func() *CampaignResult {
		res, err := (&Campaign{App: bin, N: 30, Model: SingleBit, Seed: 7}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Injections {
		ia, ib := a.Injections[i], b.Injections[i]
		if ia.TargetDyn != ib.TargetDyn || !sliceEq(ia.Bits, ib.Bits) || ia.StaticIdx != ib.StaticIdx {
			t.Fatalf("injection %d differs across identical campaigns: %+v vs %+v", i, ia, ib)
		}
		if ia.Outcome != ib.Outcome || ia.Signal != ib.Signal || ia.Latency != ib.Latency {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, ia, ib)
		}
	}
}

func sliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDoubleBitFlipsTwoBits(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	res, err := (&Campaign{App: bin, N: 20, Model: DoubleBit, Seed: 9}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range res.Injections {
		if len(inj.Bits) != 2 || inj.Bits[0] == inj.Bits[1] {
			t.Fatalf("double-bit injection has bits %v", inj.Bits)
		}
	}
}

func TestCoverageHPCCG(t *testing.T) {
	for _, opt := range []int{0, 1} {
		bin := buildWorkload(t, "HPCCG", opt, true)
		exp := &CoverageExperiment{App: bin, Trials: 40, Model: SingleBit, Seed: 4242}
		res, err := exp.Run()
		if err != nil {
			t.Fatalf("O%d: %v (res=%+v)", opt, err, res)
		}
		cov := res.Coverage()
		t.Logf("O%d: attempts=%d segv=%d recovered=%d clean=%d coverage=%.1f%% meanRec=%v prep=%.1f%% failures=%v",
			opt, res.Attempts, res.SigsegvTrials, res.Recovered, res.CleanRecovered,
			100*cov, res.MeanRecoveryTime(), 100*res.PrepFraction(), res.FailureOutcomes)
		if cov < 0.4 {
			t.Errorf("O%d: coverage %.2f is far below the paper's band", opt, cov)
		}
		if res.Recovered > 0 && res.PrepFraction() < 0.5 {
			t.Errorf("O%d: prep fraction %.2f; paper reports >0.98", opt, res.PrepFraction())
		}
	}
}

func TestHeuristicModeIncreasesSurvivalButRisksSDC(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	base, err := (&CoverageExperiment{App: bin, Trials: 25, Seed: 77}).Run()
	if err != nil {
		t.Fatal(err)
	}
	heur, err := (&CoverageExperiment{App: bin, Trials: 25, Seed: 77,
		Safeguard: safeguard.Config{Heuristic: true}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if heur.Recovered < base.Recovered {
		t.Errorf("heuristic mode recovered fewer trials (%d) than faithful mode (%d)", heur.Recovered, base.Recovered)
	}
	// The LetGo-style fallback must show SDCs that faithful CARE avoids.
	heurSDC := heur.Recovered - heur.CleanRecovered
	baseSDC := base.Recovered - base.CleanRecovered
	t.Logf("faithful: %d recovered (%d SDC); heuristic: %d recovered (%d SDC)",
		base.Recovered, baseSDC, heur.Recovered, heurSDC)
}

// TestFaultSiteSkew reproduces the paper's §2.1.2 observation: faults in
// FPU (float) destinations skew toward SDCs/benign outcomes, while ALU
// (integer) destinations — which feed address computations — produce
// nearly all the soft failures.
func TestFaultSiteSkew(t *testing.T) {
	bin := buildWorkload(t, "miniMD", 0, false)
	res, err := (&Campaign{App: bin, N: 250, Model: SingleBit, Seed: 5}).Run()
	if err != nil {
		t.Fatal(err)
	}
	alu := res.ByDest[machine.DestIntReg]
	fpu := res.ByDest[machine.DestFloatReg]
	if alu == nil || fpu == nil {
		t.Fatalf("missing dest breakdown: %v", res.ByDest)
	}
	aluSoft := float64(alu[SoftFailure]) / float64(total(alu))
	fpuSoft := float64(fpu[SoftFailure]) / float64(total(fpu))
	t.Logf("ALU: %v (soft %.2f)  FPU: %v (soft %.2f)  mem: %v",
		alu, aluSoft, fpu, fpuSoft, res.ByDest[machine.DestMemory])
	if aluSoft <= fpuSoft {
		t.Errorf("ALU soft-failure rate %.2f not above FPU %.2f", aluSoft, fpuSoft)
	}
}

func total(m map[Outcome]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// TestPropagationTracking exercises the §2 trace analysis: injections
// with TrackPropagation report how far the fault spread, and crashing
// injections show propagation consistent with their latency.
func TestPropagationTracking(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	res, err := (&Campaign{App: bin, N: 40, Model: SingleBit, Seed: 13, TrackPropagation: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	anyProp := false
	for _, inj := range res.Injections {
		if inj.PropagationWrites > 0 {
			anyProp = true
		}
		if inj.Outcome == SoftFailure && inj.Latency > 3 && inj.PropagationWrites == 0 {
			t.Errorf("soft failure with latency %d but no recorded propagation: %+v", inj.Latency, inj)
		}
	}
	if !anyProp {
		t.Fatal("no injection showed any propagation")
	}
	// Tracking must not change outcomes (shadow state only).
	base, err := (&Campaign{App: bin, N: 40, Model: SingleBit, Seed: 13}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Injections {
		if base.Injections[i].Outcome != res.Injections[i].Outcome {
			t.Fatalf("tracking changed outcome %d: %v vs %v", i,
				base.Injections[i].Outcome, res.Injections[i].Outcome)
		}
	}
}

// TestMergeRejectsResultsOutOfOrder: the merges are what guarantees
// that results arrive in index order (the shard coordinator slots a
// worker's results by chunk without looking at them), so a result
// carrying the wrong index fails the run instead of being merged as
// another trial.
func TestMergeRejectsResultsOutOfOrder(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	c := &Campaign{App: bin, N: 2}
	if _, err := c.MergeResults(&profiler.Profile{TotalDyn: 1}, []TrialResult{{Index: 1}, {Index: 0}}); err == nil || !strings.Contains(err.Error(), "index order") {
		t.Fatalf("trials out of order: got %v", err)
	}
	e := &CoverageExperiment{App: bin, Trials: 1, MaxAttempts: 4}
	res, err := e.RunWaves(2, func(lo, hi int) ([]AttemptResult, error) {
		return []AttemptResult{{Index: lo + 1}, {Index: lo}}, nil
	})
	if err == nil || res != nil || !strings.Contains(err.Error(), "index order") {
		t.Fatalf("attempts out of order: got res=%v err=%v", res != nil, err)
	}
}

// TestProgressCountsAcrossWaves: a coverage experiment stops once it has
// examined Trials SIGSEGV trials, so its heartbeat counts examined trials
// out of Trials, once per merged wave: the counts never fall, and the
// last report is Trials/Trials, so the heartbeat ends on a final line.
func TestProgressCountsAcrossWaves(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	var got [][2]int
	e := &CoverageExperiment{App: bin, Trials: 2, Seed: 7, Workers: 1,
		Progress: func(done, total int) { got = append(got, [2]int{done, total}) }}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	const wave = 4 // 4 attempts per worker
	waves := (res.Attempts + wave - 1) / wave
	if waves < 2 {
		t.Fatalf("%d attempts fit in one wave of %d; the test needs several", res.Attempts, wave)
	}
	if len(got) != waves {
		t.Fatalf("%d reports for %d waves", len(got), waves)
	}
	for i, p := range got {
		if p[1] != e.Trials || p[0] > e.Trials || (i > 0 && p[0] < got[i-1][0]) {
			t.Fatalf("reports %v: want non-decreasing counts out of %d", got, e.Trials)
		}
	}
	if last := got[len(got)-1]; last != [2]int{e.Trials, e.Trials} {
		t.Fatalf("last report %d/%d, want %d/%d", last[0], last[1], e.Trials, e.Trials)
	}
}
