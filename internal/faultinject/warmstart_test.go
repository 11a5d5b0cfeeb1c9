package faultinject

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"care/internal/core"
	"care/internal/ir"
	"care/internal/machine"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/trace"
	"care/internal/workloads"
)

// jsonlBytes serialises a recorder the way the CLI tools do; warm and
// cold campaign exports must compare byte-for-byte equal.
func jsonlBytes(t *testing.T, r *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scrubWarmStart strips the one field a warm campaign is allowed to add;
// everything else must be bit-identical to the cold run.
func scrubWarmStart(r *CampaignResult) *CampaignResult {
	c := *r
	c.WarmStart = nil
	return &c
}

// tinyBinary builds a ~250-dynamic-instruction workload (sum of 0..39
// reported through result_f64) so the cadence-1 sweep can afford one
// snapshot per retired instruction.
func tinyBinary(t testing.TB) *core.Binary {
	t.Helper()
	m := ir.NewModule("tinysum")
	b := ir.NewBuilder(m)
	b.NewFunc("main", ir.I64)
	entry := m.Func("main").Entry()
	loop := b.NewBlock("loop")
	body := b.NewBlock("body")
	done := b.NewBlock("done")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.F64)
	c := b.ICmp(ir.OpICmpSLT, i, ir.ConstInt(40))
	b.CondBr(c, body, done)
	b.SetBlock(body)
	fi := b.IToF(i)
	s2 := b.FAdd(s, fi)
	in := b.Add(i, ir.ConstInt(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.ConstInt(0), entry)
	ir.AddIncoming(i, in, body)
	ir.AddIncoming(s, ir.ConstFloat(0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(done)
	b.HostCall("result_f64", ir.Void, s)
	b.Ret(ir.ConstInt(0))
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	bin, err := core.Build(m, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestWarmStartCampaignEquivalence is the warm-start contract: the same
// seed produces a bit-identical CampaignResult — including the exported
// trace JSONL — with warm-start on or off, for any worker count. Only
// the WarmStart accounting field may differ.
func TestWarmStartCampaignEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(warm bool, workers int) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 24, Model: SingleBit, Seed: 11,
			Workers: workers, Trace: true, WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(false, 1)
	if cold.WarmStart != nil {
		t.Fatal("cold campaign reports warm-start stats")
	}
	coldJSON := jsonlBytes(t, cold.Trace)
	for _, workers := range []int{1, 4} {
		warm := run(true, workers)
		if warm.WarmStart == nil {
			t.Fatalf("workers=%d: warm campaign has no warm-start stats", workers)
		}
		if ws := warm.WarmStart; ws.Snapshots == 0 || ws.WarmTrials == 0 || ws.SkippedDyn == 0 ||
			ws.ConvergedTrials == 0 || ws.ConvergedDyn == 0 {
			t.Fatalf("workers=%d: warm campaign skipped nothing: %+v", workers, ws)
		}
		if !reflect.DeepEqual(scrubWarmStart(warm), cold) {
			t.Fatalf("workers=%d: warm result differs from cold:\n%+v\nvs\n%+v",
				workers, scrubWarmStart(warm), cold)
		}
		if !bytes.Equal(jsonlBytes(t, warm.Trace), coldJSON) {
			t.Fatalf("workers=%d: warm trace JSONL differs from cold", workers)
		}
	}
}

// TestWarmStartSnapshotCadences sweeps the snapshot cadence across its
// edge cases on a tiny workload: one snapshot per instruction (so every
// trial is compared with the golden run after every instruction once
// its fault fired), a prime stride, and a stride past the end of the
// run (zero snapshots, so every trial falls back to a cold start and
// none can stop early). All must reproduce the cold result.
func TestWarmStartSnapshotCadences(t *testing.T) {
	bin := tinyBinary(t)
	run := func(warm bool, every uint64) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 16, Model: SingleBit, Seed: 7,
			Workers: 4, Trace: true, WarmStart: warm, SnapEvery: every,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(false, 0)
	coldJSON := jsonlBytes(t, cold.Trace)
	for _, every := range []uint64{1, 7, 1 << 40} {
		warm := run(true, every)
		if !reflect.DeepEqual(scrubWarmStart(warm), cold) {
			t.Fatalf("cadence %d: warm result differs from cold:\n%+v\nvs\n%+v",
				every, scrubWarmStart(warm), cold)
		}
		if !bytes.Equal(jsonlBytes(t, warm.Trace), coldJSON) {
			t.Fatalf("cadence %d: warm trace JSONL differs from cold", every)
		}
		switch ws := warm.WarmStart; {
		case every == 1 && ws.WarmTrials == 0:
			t.Fatal("cadence 1 warm-started no trial")
		case every == 1<<40 && (ws.Snapshots != 0 || ws.ConvergedTrials != 0):
			t.Fatalf("cadence past TotalDyn captured %d snapshots and stopped %d trials early", ws.Snapshots, ws.ConvergedTrials)
		case every != 1<<40 && ws.ConvergedTrials == 0:
			t.Fatalf("cadence %d stopped no trial at a snapshot", every)
		}
	}
}

// TestWarmStartMultiFaultEquivalence extends the contract to the
// multi-fault model, where the snapshot must be chosen against the
// *earliest* armed target — a later fault's snapshot would skip past the
// first corruption point.
func TestWarmStartMultiFaultEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(warm bool) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 16, Model: SingleBit, Seed: 13,
			FaultsPerTrial: 3, Workers: 4, Trace: true, WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	if !reflect.DeepEqual(scrubWarmStart(warm), cold) {
		t.Fatalf("multi-fault warm result differs from cold:\n%+v\nvs\n%+v",
			scrubWarmStart(warm), cold)
	}
	if !bytes.Equal(jsonlBytes(t, warm.Trace), jsonlBytes(t, cold.Trace)) {
		t.Fatal("multi-fault warm trace JSONL differs from cold")
	}
	if warm.WarmStart.WarmTrials == 0 || warm.WarmStart.ConvergedTrials == 0 {
		t.Fatalf("multi-fault campaign warm-started or stopped early no trial: %+v", warm.WarmStart)
	}
	// Every fault of every trial must still fire at (or after) its own
	// target — a snapshot past the earliest target would make that fault
	// unfirable.
	for _, inj := range warm.Injections {
		for _, fp := range inj.Faults {
			if fp.Fired && fp.Dyn < fp.TargetDyn {
				t.Errorf("fault fired at dyn %d before its target %d", fp.Dyn, fp.TargetDyn)
			}
		}
	}
}

// TestWarmStartProtectedEquivalence extends the contract to protected
// trials: a CARE build under the Safeguard runtime, whose trials may
// trap, recover and resume before they rejoin the golden run. Safeguard
// phase spans carry measured wall times, so the traces are compared on
// their deterministic skeleton.
func TestWarmStartProtectedEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(warm bool) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 24, Model: SingleBit, Seed: 11,
			Workers: 4, Trace: true, Protected: true, WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	w, c := *scrubWarmStart(warm), *cold
	w.Trace, c.Trace = nil, nil
	if !reflect.DeepEqual(w, c) {
		t.Fatalf("protected warm result differs from cold:\n%+v\nvs\n%+v", w, c)
	}
	requireTraceSkeletonEqual(t, warm.Trace, cold.Trace)
	if warm.WarmStart.ConvergedTrials == 0 {
		t.Fatalf("protected campaign stopped no trial at a snapshot: %+v", warm.WarmStart)
	}
}

// TestRestoringCampaignRollsBack: a protected campaign whose policy
// restores gets the Safeguard's own checkpoint store in every trial, so
// the rollback stage can run (no wiring step to forget), and it starts
// every trial cold, so its warm-started run exports the same trace as
// its cold run (wall-measured fields scrubbed).
func TestRestoringCampaignRollsBack(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(warm bool) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 60, Model: SingleBit, Seed: 5, Protected: true, WarmStart: warm,
			Safeguard: safeguard.Config{Policy: safeguard.Policy{Rollback: true}},
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	n := cold.Trace.Counter(safeguard.CounterRolledBack)
	if n == 0 {
		t.Fatalf("no trial rolled back (outcomes %v)", cold.Outcomes)
	}
	t.Logf("%d rollbacks, outcomes %v", n, cold.Outcomes)
	jsonl := scrubbedJSONL(t, cold.Trace)
	if strings.Contains(jsonl, "safeguard.rollback.unwired") {
		t.Fatal("trace reports a rollback stage without a checkpoint store")
	}
	if warm.WarmStart.WarmTrials != 0 {
		t.Fatalf("%d trials warm-started under a restoring policy", warm.WarmStart.WarmTrials)
	}
	if scrubbedJSONL(t, warm.Trace) != jsonl {
		t.Fatal("warm-started trace JSONL differs from the cold run's")
	}
}

// TestWarmStartHangBudgetEquivalence pins the budget condition of the
// early stop. With HangFactor 1 a trial's budget is TotalDyn attempts,
// one short of a fault-free run (the exit attempt retires nothing), so a
// trial that rejoins the golden run still hangs: it may only stop early
// when its remaining budget covers the golden suffix and the exit.
func TestWarmStartHangBudgetEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	run := func(warm bool, hang uint64) *CampaignResult {
		res, err := (&Campaign{
			App: bin, N: 40, Model: SingleBit, Seed: 3, HangFactor: hang,
			Workers: 4, Trace: true, WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, hang := range []uint64{1, 2} {
		cold, warm := run(false, hang), run(true, hang)
		if !reflect.DeepEqual(scrubWarmStart(warm), cold) {
			t.Fatalf("hang factor %d: warm result differs from cold:\n%+v\nvs\n%+v", hang, scrubWarmStart(warm), cold)
		}
		if !bytes.Equal(jsonlBytes(t, warm.Trace), jsonlBytes(t, cold.Trace)) {
			t.Fatalf("hang factor %d: warm trace JSONL differs from cold", hang)
		}
		if hang == 1 && (cold.Outcomes[Hang] == 0 || warm.WarmStart.ConvergedTrials != 0) {
			t.Fatalf("hang factor 1: %d hangs, %d trials stopped early; want hangs and no early stop",
				cold.Outcomes[Hang], warm.WarmStart.ConvergedTrials)
		}
		if hang == 2 && warm.WarmStart.ConvergedTrials == 0 {
			t.Fatal("hang factor 2: no trial stopped at a snapshot")
		}
	}
}

// TestSnapshotPassMatchesStepReference pins the hook-free snapshot
// pass: RunWithSnapshots captures by budget slicing on the fast tier,
// and every SnapPoint it takes must equal the state a step-by-step
// reference loop holds at the same cadence point — Dyn, registers, PC,
// result and print streams and memory bytes (Snapshot.Matches), and the
// execution counts. Cadence 1 cuts a slice at every instruction, 7 cuts
// superblocks at odd places, and a cadence past the end takes none.
func TestSnapshotPassMatchesStepReference(t *testing.T) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		t.Fatal(err)
	}
	// A 1x1x1 grid keeps the cadence-1 pass to ~3,200 snapshots.
	hpccg, err := core.Build(w.Module(workloads.Params{NX: 1, NY: 1, NZ: 1, Steps: 1}), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range []*core.Binary{tinyBinary(t), hpccg} {
		for _, every := range []uint64{1, 7, 1 << 40} {
			prof, err := profiler.RunWithSnapshots(bin, nil, 0, every)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProcess(core.ProcessConfig{App: bin})
			if err != nil {
				t.Fatal(err)
			}
			c := p.CPU
			c.Profile = true
			k := 0
			for c.Status == machine.StatusRunning {
				before := c.Dyn
				c.Step()
				if c.Dyn == before || c.Dyn%every != 0 {
					continue
				}
				if k == len(prof.Snaps) {
					t.Fatalf("%s/%d: reference reached cadence point %d, the pass captured only %d snapshots", bin.Name, every, c.Dyn, k)
				}
				sp := &prof.Snaps[k]
				if sp.Dyn != c.Dyn || !sp.State.Matches(c) {
					t.Fatalf("%s/%d: snapshot %d (dyn %d) differs from the reference state at dyn %d", bin.Name, every, k, sp.Dyn, c.Dyn)
				}
				for img, cnts := range c.Counts {
					if !slices.Equal(sp.Counts[img.Prog.Name], cnts) {
						t.Fatalf("%s/%d: snapshot %d execution counts of %s differ", bin.Name, every, k, img.Prog.Name)
					}
				}
				if len(sp.Counts) != len(c.Counts) {
					t.Fatalf("%s/%d: snapshot %d has counts for %d images, reference %d", bin.Name, every, k, len(sp.Counts), len(c.Counts))
				}
				k++
			}
			if c.Status != machine.StatusExited || c.Dyn != prof.TotalDyn || k != len(prof.Snaps) {
				t.Fatalf("%s/%d: reference ended %v at dyn %d after %d cadence points; pass: %d dyn, %d snapshots",
					bin.Name, every, c.Status, c.Dyn, k, prof.TotalDyn, len(prof.Snaps))
			}
			if every == 1 && k != int(prof.TotalDyn) || every == 1<<40 && k != 0 {
				t.Fatalf("%s/%d: %d snapshots over %d dyn", bin.Name, every, k, prof.TotalDyn)
			}
		}
	}
}

// TestNearestSnapStrictlyPrecedes pins the eligibility rule: a snapshot
// taken at exactly the target dyn has already retired the target
// instruction uncorrupted, so only strictly earlier snapshots qualify.
func TestNearestSnapStrictlyPrecedes(t *testing.T) {
	p := &profiler.Profile{Snaps: []profiler.SnapPoint{{Dyn: 10}, {Dyn: 20}, {Dyn: 30}}}
	for _, tc := range []struct {
		dyn  uint64
		want uint64 // 0 = nil
	}{
		{5, 0}, {10, 0}, {11, 10}, {20, 10}, {30, 20}, {31, 30}, {1 << 30, 30},
	} {
		got := p.NearestSnap(tc.dyn)
		switch {
		case tc.want == 0 && got != nil:
			t.Errorf("NearestSnap(%d) = snapshot at %d, want nil", tc.dyn, got.Dyn)
		case tc.want != 0 && (got == nil || got.Dyn != tc.want):
			t.Errorf("NearestSnap(%d) = %v, want snapshot at %d", tc.dyn, got, tc.want)
		}
	}
}

// TestWarmStartCoverageEquivalence asserts the §5 coverage path under
// warm start: occurrence-triggered faults fire on exactly the same
// retirement as cold thanks to the pre-seeded occurrence counters, so
// every logical field matches (only wall-clock timings may differ).
func TestWarmStartCoverageEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(warm bool) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 12, Model: SingleBit, Seed: 21,
			RecordInjections: true, Workers: 4, WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	scrub := func(r *CoverageResult) CoverageResult {
		c := *r
		c.Events = nil
		c.TrialRecoveryTimes = nil
		c.Trace = nil // compared separately, with Wall times scrubbed
		return c
	}
	if a, b := scrub(warm), scrub(cold); !reflect.DeepEqual(a, b) {
		t.Fatalf("warm coverage differs from cold:\n%+v\nvs\n%+v", a, b)
	}
	requireTraceSkeletonEqual(t, warm.Trace, cold.Trace)
}

// TestWarmStartCoverageRollbackGuard pins the rollback interaction:
// warm start is silently ignored when the policy checkpoints processes
// at _start (a mid-run clone cannot reproduce that store), and the
// result still matches the cold rollback run exactly.
func TestWarmStartCoverageRollbackGuard(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	run := func(warm bool) *CoverageResult {
		res, err := (&CoverageExperiment{
			App: bin, Trials: 6, Model: SingleBit, Seed: 31,
			Safeguard: safeguard.Config{
				Policy: safeguard.Policy{Rollback: true, MaxTrapsPerPC: 8, StormTraps: 4},
			},
			Workers:   4,
			WarmStart: warm,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold, warm := run(false), run(true)
	scrub := func(r *CoverageResult) CoverageResult {
		c := *r
		c.Events = nil
		c.TrialRecoveryTimes = nil
		c.Trace = nil
		return c
	}
	if a, b := scrub(warm), scrub(cold); !reflect.DeepEqual(a, b) {
		t.Fatalf("rollback coverage differs with warm-start requested:\n%+v\nvs\n%+v", a, b)
	}
	requireTraceSkeletonEqual(t, warm.Trace, cold.Trace)
}
