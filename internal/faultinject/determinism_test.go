package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/trace"
)

// traceSkeleton extracts the deterministic portion of a recorder: its
// spans with the wall-clock durations zeroed, plus both counter maps.
// Coverage-path traces carry measured Wall times — both in Span.Wall and
// in the "*-ns" duration counters — which are the only fields allowed to
// differ across worker counts.
func traceSkeleton(r *trace.Recorder) (spans []trace.Span, adds, maxes map[string]int64) {
	spans = r.Spans()
	for i := range spans {
		spans[i].Wall = 0
	}
	adds = make(map[string]int64)
	for _, n := range r.CounterNames() {
		if strings.HasSuffix(n, "-ns") {
			continue
		}
		adds[n] = r.Counter(n)
	}
	maxes = make(map[string]int64)
	for _, n := range r.MaxNames() {
		maxes[n] = r.MaxCounter(n)
	}
	return spans, adds, maxes
}

// requireTraceSkeletonEqual fails the test unless two recorders agree on
// every deterministic field (span skeletons and counters).
func requireTraceSkeletonEqual(t *testing.T, a, b *trace.Recorder) {
	t.Helper()
	aSp, aAdd, aMax := traceSkeleton(a)
	bSp, bAdd, bMax := traceSkeleton(b)
	if !reflect.DeepEqual(aSp, bSp) {
		t.Fatalf("trace span skeletons differ:\n%+v\nvs\n%+v", aSp, bSp)
	}
	if !reflect.DeepEqual(aAdd, bAdd) {
		t.Fatalf("trace counters differ:\n%v\nvs\n%v", aAdd, bAdd)
	}
	if !reflect.DeepEqual(aMax, bMax) {
		t.Fatalf("trace max-counters differ:\n%v\nvs\n%v", aMax, bMax)
	}
}

// TestCampaignWorkerDeterminism is the contract of the parallel
// campaign engine: the same Seed produces a bit-identical
// CampaignResult for Workers=1 and Workers=8, under both fault models
// and with propagation tracking on.
func TestCampaignWorkerDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	for _, tc := range []struct {
		name  string
		model Model
		track bool
	}{
		{"single-bit", SingleBit, false},
		{"double-bit", DoubleBit, false},
		{"single-bit/track-propagation", SingleBit, true},
		{"double-bit/track-propagation", DoubleBit, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *CampaignResult {
				res, err := (&Campaign{
					App: bin, N: 24, Model: tc.model, Seed: 11,
					TrackPropagation: tc.track, Workers: workers,
					Trace: true,
				}).Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial, par := run(1), run(8)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("result differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, par)
			}
		})
	}
}

// TestMultiFaultCampaignWorkerDeterminism extends the contract to the
// multi-fault model: K independent faults per trial, still bit-identical
// for any worker count, with every trial recording its K fault points.
func TestMultiFaultCampaignWorkerDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(workers int) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 24, Model: SingleBit, Seed: 13,
			FaultsPerTrial: 3, Workers: workers, Trace: true,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := run(1), run(8)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("multi-fault result differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, par)
	}
	anyFired := false
	for _, inj := range serial.Injections {
		if len(inj.Faults) != 3 {
			t.Fatalf("injection records %d fault points, want 3: %+v", len(inj.Faults), inj)
		}
		for _, fp := range inj.Faults {
			if fp.Fired {
				anyFired = true
				if fp.Dyn < fp.TargetDyn {
					t.Errorf("fault fired at dyn %d before its target %d", fp.Dyn, fp.TargetDyn)
				}
			}
		}
	}
	if !anyFired {
		t.Fatal("no fault of any trial fired; campaign is degenerate")
	}
}

// TestMultiFaultCoverageRollbackDeterminism pins the full escalation
// chain under the multi-fault model: rollback-enabled coverage runs are
// bit-identical (in every logical field) across worker counts.
func TestMultiFaultCoverageRollbackDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(workers int) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 8, FaultsPerTrial: 2, Model: SingleBit, Seed: 31,
			Safeguard: safeguard.Config{
				InductionRecovery: true,
				Policy:            safeguard.Policy{Rollback: true, MaxTrapsPerPC: 8, StormTraps: 4},
			},
			Workers: workers,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := run(1), run(8)
	scrub := func(r *CoverageResult) CoverageResult {
		c := *r
		c.Events = nil
		c.TrialRecoveryTimes = nil
		c.Trace = nil // compared separately, with Wall times scrubbed
		return c
	}
	if a, b := scrub(serial), scrub(par); !reflect.DeepEqual(a, b) {
		t.Fatalf("logical fields differ between workers=1 and workers=8:\n%+v\nvs\n%+v", a, b)
	}
	requireTraceSkeletonEqual(t, serial.Trace, par.Trace)
	if len(serial.Events) != len(par.Events) {
		t.Fatalf("event count differs: %d vs %d", len(serial.Events), len(par.Events))
	}
	for i := range serial.Events {
		if serial.Events[i].Outcome != par.Events[i].Outcome {
			t.Errorf("event %d outcome %s vs %s", i, serial.Events[i].Outcome, par.Events[i].Outcome)
		}
	}
}

// TestCampaignSeedsDiffer guards against a degenerate seed derivation:
// two campaigns with different seeds must draw different injections.
func TestCampaignSeedsDiffer(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(seed int64) *CampaignResult {
		res, err := (&Campaign{App: bin, N: 24, Model: SingleBit, Seed: seed, Workers: 4}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(2)
	same := true
	for i := range a.Injections {
		if a.Injections[i].TargetDyn != b.Injections[i].TargetDyn ||
			!sliceEq(a.Injections[i].Bits, b.Injections[i].Bits) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("campaigns with seeds 1 and 2 drew identical injections")
	}
}

// TestCoverageWorkerDeterminism asserts the coverage experiment's
// guarantee: every logical field is identical for any worker count
// (only the wall-clock recovery timings may differ).
func TestCoverageWorkerDeterminism(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(workers int) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 15, Model: SingleBit, Seed: 21,
			RecordInjections: true, Workers: workers,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, par := run(1), run(8)
	// Strip the wall-clock fields; everything else must match exactly.
	scrub := func(r *CoverageResult) CoverageResult {
		c := *r
		c.Events = nil
		c.TrialRecoveryTimes = nil
		c.Trace = nil // compared separately, with Wall times scrubbed
		return c
	}
	if a, b := scrub(serial), scrub(par); !reflect.DeepEqual(a, b) {
		t.Fatalf("logical fields differ between workers=1 and workers=8:\n%+v\nvs\n%+v", a, b)
	}
	requireTraceSkeletonEqual(t, serial.Trace, par.Trace)
	if len(serial.Events) != len(par.Events) {
		t.Fatalf("event count differs: %d vs %d", len(serial.Events), len(par.Events))
	}
	if len(serial.TrialRecoveryTimes) != len(par.TrialRecoveryTimes) {
		t.Fatalf("recovery-time count differs: %d vs %d",
			len(serial.TrialRecoveryTimes), len(par.TrialRecoveryTimes))
	}
}

// TestCampaignZeroDynError is the regression test for the
// rand.Int63n(0) panic: a golden run that retires no instructions must
// produce a descriptive error, not a panic.
func TestCampaignZeroDynError(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	c := &Campaign{App: bin, N: 5, Seed: 1}
	res, err := c.runProfiled(&profiler.Profile{TotalDyn: 0})
	if err == nil {
		t.Fatalf("expected error for TotalDyn=0, got %+v", res)
	}
	if !strings.Contains(err.Error(), "retired no instructions") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

// TestCoverageZeroCountsError covers the same degenerate-profile
// pattern in the coverage sampler: target images with zero executed
// instructions must error descriptively instead of panicking in draw.
func TestCoverageZeroCountsError(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	e := &CoverageExperiment{App: bin, Trials: 5, Seed: 1}
	res, err := e.runProfiled(&profiler.Profile{
		TotalDyn: 100,
		Counts:   map[string][]uint64{bin.Name: make([]uint64, 8)},
	})
	if err == nil {
		t.Fatalf("expected error for zero-count profile, got %+v", res)
	}
	if !strings.Contains(err.Error(), "no instructions") {
		t.Fatalf("undescriptive error: %v", err)
	}
	// A profile that lacks the image entirely errors too.
	if _, err := e.runProfiled(&profiler.Profile{TotalDyn: 100}); err == nil {
		t.Fatal("expected error for profile without target image")
	}
}

// TestLatencyOnlyWhenObserved audits the Table 3/4 inputs: every
// recorded latency and symptom must come from a soft failure whose
// injection actually fired, so the counts line up exactly with the
// fired soft-failure injections.
func TestLatencyOnlyWhenObserved(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	res, err := (&Campaign{App: bin, N: 80, Model: SingleBit, Seed: 17}).Run()
	if err != nil {
		t.Fatal(err)
	}
	firedSoft := 0
	for _, inj := range res.Injections {
		// A fired injection always records the image it corrupted.
		if inj.Outcome == SoftFailure && inj.Image != "" {
			firedSoft++
		}
	}
	if len(res.Latencies) != firedSoft {
		t.Errorf("%d latencies recorded for %d fired soft failures", len(res.Latencies), firedSoft)
	}
	symptoms := 0
	for _, n := range res.Symptoms {
		symptoms += n
	}
	if symptoms != firedSoft {
		t.Errorf("%d symptoms recorded for %d fired soft failures", symptoms, firedSoft)
	}
}

// TestTrialSeedStreams sanity-checks the splitmix64 derivation: the
// per-trial seeds of one campaign are collision-free over a large
// range, and adjacent campaign seeds do not share shifted streams.
func TestTrialSeedStreams(t *testing.T) {
	seen := map[int64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		s := TrialSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("TrialSeed(42, %d) == TrialSeed(42, %d) == %d", i, j, s)
		}
		seen[s] = i
	}
	for i := uint64(0); i < 1000; i++ {
		if TrialSeed(1, i+1) == TrialSeed(2, i) {
			t.Fatalf("campaign seeds 1 and 2 share a shifted stream at trial %d", i)
		}
	}
}
