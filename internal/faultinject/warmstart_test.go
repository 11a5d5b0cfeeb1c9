package faultinject

import (
	"bytes"
	"fmt"
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
// their deterministic skeleton. A trial a recovery kernel repaired must
// be able to rejoin too: the kernel's scratch stack is no part of the
// state comparison.
func TestWarmStartProtectedEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, true)
	camp := func(warm bool) *Campaign {
		return &Campaign{
			App: bin, N: 24, Model: SingleBit, Seed: 11,
			Workers: 4, Trace: true, Protected: true, WarmStart: warm,
		}
	}
	cold, err := camp(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The warm campaign runs as Run does, keeping its trial results.
	c := camp(true)
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.RunTrialRange(prof, 0, c.N)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.MergeResults(prof, trials)
	if err != nil {
		t.Fatal(err)
	}
	w, cc := *scrubWarmStart(warm), *cold
	w.Trace, cc.Trace = nil, nil
	if !reflect.DeepEqual(w, cc) {
		t.Fatalf("protected warm result differs from cold:\n%+v\nvs\n%+v", w, cc)
	}
	requireTraceSkeletonEqual(t, warm.Trace, cold.Trace)
	if warm.WarmStart.ConvergedTrials == 0 {
		t.Fatalf("protected campaign stopped no trial at a snapshot: %+v", warm.WarmStart)
	}
	recovered, rejoined := 0, 0
	for _, tr := range trials {
		if !slices.ContainsFunc(tr.Rec.Spans(), func(s trace.Span) bool {
			return s.Kind == trace.KindActivation && s.Outcome == string(safeguard.Recovered)
		}) {
			continue
		}
		recovered++
		if tr.ConvergedDyn > 0 {
			rejoined++
		}
	}
	t.Logf("%d of %d kernel-recovered trials rejoined the golden run", rejoined, recovered)
	if rejoined == 0 {
		t.Fatalf("no kernel-recovered trial of %d rejoined the golden run", recovered)
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

// TestSnapshotPassMatchesStepReference pins the hook-free snapshot
// pass: RunWithSnapshots captures by budget slicing on the fast tier,
// and every SnapPoint it takes must equal the state a step-by-step
// reference loop holds at the same cadence point — Dyn, registers, PC,
// result and print streams and memory bytes (Snapshot.Matches), and the
// execution counts. Cadence 1 cuts a slice at every instruction, 7 cuts
// superblocks at odd places, and a cadence past the end takes none. The
// default cadence (RunWithDefaultSnapshots) thins a power-of-two grid as
// it runs; its arm runs HPCCG at its default size, long enough to thin
// once, and checks each kept snapshot at its own Dyn.
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
	type pass struct {
		name string
		bin  *core.Binary
		prof *profiler.Profile
		// at reports whether the pass captured at dyn.
		at func(dyn uint64) bool
	}
	var passes []pass
	for _, bin := range []*core.Binary{tinyBinary(t), hpccg} {
		for _, every := range []uint64{1, 7, 1 << 40} {
			prof, err := profiler.RunWithSnapshots(bin, nil, 0, every)
			if err != nil {
				t.Fatal(err)
			}
			if every == 1 && len(prof.Snaps) != int(prof.TotalDyn) || every == 1<<40 && len(prof.Snaps) != 0 {
				t.Fatalf("%s/%d: %d snapshots over %d dyn", bin.Name, every, len(prof.Snaps), prof.TotalDyn)
			}
			passes = append(passes, pass{fmt.Sprintf("%s/%d", bin.Name, every), bin, prof,
				func(dyn uint64) bool { return dyn%every == 0 }})
		}
	}
	def := buildWorkload(t, "HPCCG", 0, false)
	prof, err := profiler.RunWithDefaultSnapshots(def)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Snaps) != 63 {
		t.Fatalf("default cadence took %d snapshots over %d dyn, want 63", len(prof.Snaps), prof.TotalDyn)
	}
	passes = append(passes, pass{def.Name + "/default", def, prof, func(dyn uint64) bool {
		return slices.ContainsFunc(prof.Snaps, func(sp profiler.SnapPoint) bool { return sp.Dyn == dyn })
	}})
	for _, ps := range passes {
		p, err := core.NewProcess(core.ProcessConfig{App: ps.bin})
		if err != nil {
			t.Fatal(err)
		}
		c := p.CPU
		c.Profile = true
		k := 0
		for c.Status == machine.StatusRunning {
			before := c.Dyn
			c.Step()
			if c.Dyn == before || !ps.at(c.Dyn) {
				continue
			}
			if k == len(ps.prof.Snaps) {
				t.Fatalf("%s: reference reached cadence point %d, the pass captured only %d snapshots", ps.name, c.Dyn, k)
			}
			sp := &ps.prof.Snaps[k]
			if sp.Dyn != c.Dyn || !sp.State.Matches(c) {
				t.Fatalf("%s: snapshot %d (dyn %d) differs from the reference state at dyn %d", ps.name, k, sp.Dyn, c.Dyn)
			}
			for img, cnts := range c.Counts {
				if !slices.Equal(sp.Counts[img.Prog.Name], cnts) {
					t.Fatalf("%s: snapshot %d execution counts of %s differ", ps.name, k, img.Prog.Name)
				}
			}
			if len(sp.Counts) != len(c.Counts) {
				t.Fatalf("%s: snapshot %d has counts for %d images, reference %d", ps.name, k, len(sp.Counts), len(c.Counts))
			}
			k++
		}
		if c.Status != machine.StatusExited || c.Dyn != ps.prof.TotalDyn || k != len(ps.prof.Snaps) {
			t.Fatalf("%s: reference ended %v at dyn %d after %d cadence points; pass: %d dyn, %d snapshots",
				ps.name, c.Status, c.Dyn, k, ps.prof.TotalDyn, len(ps.prof.Snaps))
		}
	}
}

// driveEnd starts and drives one injected run of an unprotected binary,
// the way campaign trials and coverage attempts run, and reports how it
// ended: a run that rejoined the golden run counts as the golden exit
// at TotalDyn. A profile without snapshots makes the run cold.
func driveEnd(t *testing.T, bin *core.Binary, prof *profiler.Profile, specs []ArmSpec, budget uint64) (st machine.RunStatus, dyn uint64, rejoined bool, results []float64) {
	t.Helper()
	p, seed, err := startRun(core.ProcessConfig{App: bin}, prof, specs)
	if err != nil {
		t.Fatal(err)
	}
	st, armed, at := drive(p.CPU, prof, specs, seed, budget, nil)
	if armed == nil {
		t.Fatalf("run of %+v ended %v at dyn %d before its faults were armed", specs, st, p.CPU.Dyn)
	}
	if at != nil {
		return machine.StatusExited, prof.TotalDyn, true, prof.Golden
	}
	return st, p.CPU.Dyn, false, p.Results()
}

// coldProfile is prof without its snapshots: every run driven against
// it starts at _start and runs to its end.
func coldProfile(prof *profiler.Profile) *profiler.Profile {
	cold := *prof
	cold.Snaps = nil
	return &cold
}

// TestWarmStartHangBudgetEquivalence pins the budget condition of the
// early stop, driving runs directly at budgets of 1× and 2× TotalDyn.
// At 1× a run has TotalDyn attempts, one short of a fault-free run (the
// exit attempt retires nothing), so a run that rejoins the golden run
// still hangs: it may only stop early when its remaining budget covers
// the golden suffix and the exit. Every trial of a warm campaign is
// replayed (its target and bits) warm and cold at both budgets, and
// both must end with the same status at the same Dyn, hangs included.
func TestWarmStartHangBudgetEquivalence(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	c := &Campaign{App: bin, N: 40, Model: SingleBit, Seed: 3, Workers: 4, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.runProfiled(prof)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldProfile(prof)
	for _, factor := range []uint64{1, 2} {
		budget := factor * prof.TotalDyn
		var hangs, rejoins int
		for i, inj := range res.Injections {
			specs := []ArmSpec{{Trigger: Trigger{AtDyn: inj.TargetDyn}, Bits: inj.Bits}}
			wst, wdyn, rejoined, wres := driveEnd(t, bin, prof, specs, budget)
			cst, cdyn, _, cres := driveEnd(t, bin, cold, specs, budget)
			if wst != cst || wdyn != cdyn || !slices.Equal(wres, cres) {
				t.Errorf("%d× trial %d: warm ended %v at dyn %d (rejoined %v), cold %v at dyn %d", factor, i, wst, wdyn, rejoined, cst, cdyn)
			}
			if rejoined {
				rejoins++
			}
			if cst == machine.StatusLimit {
				hangs++
			}
		}
		t.Logf("%d× TotalDyn: %d hangs, %d rejoins of %d trials", factor, hangs, rejoins, len(res.Injections))
		if factor == 1 && (hangs == 0 || rejoins != 0) {
			t.Fatalf("1× TotalDyn: %d hangs, %d runs rejoined; want hangs and no rejoin", hangs, rejoins)
		}
		if factor == 2 && rejoins == 0 {
			t.Fatal("2× TotalDyn: no run rejoined the golden run")
		}
	}
}

// TestOccurrenceTriggersRejoin drives occurrence triggers through the
// rejoin stop. Every trial of a warm campaign that rejoined the golden
// run is named a second way, as the occurrence trigger a coverage
// attempt would arm: the corrupted instruction's image and static
// index, and how often it had retired by the trial's corruption (the
// trial span's StartDyn), counted on a profiling run. Both triggers
// corrupt the same retirement, so their warm and cold runs must all end
// the same way, and both warm runs must rejoin.
func TestOccurrenceTriggersRejoin(t *testing.T) {
	bin := buildWorkload(t, "HPCCG", 0, false)
	c := &Campaign{App: bin, N: 40, Model: SingleBit, Seed: 11, Workers: 4, WarmStart: true}
	prof, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.RunTrialRange(prof, 0, c.N)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldProfile(prof)
	budget := hangFactor * prof.TotalDyn
	rejoined := 0
	for _, tr := range trials {
		if tr.ConvergedDyn == 0 {
			continue
		}
		rejoined++
		var fireDyn uint64
		for _, s := range tr.Rec.Spans() {
			if s.Kind == trace.KindTrial {
				fireDyn = s.StartDyn
			}
		}
		p, err := core.NewProcess(core.ProcessConfig{App: bin})
		if err != nil {
			t.Fatal(err)
		}
		p.CPU.Profile = true
		if st := p.Run(fireDyn); st != machine.StatusLimit || p.CPU.Dyn != fireDyn {
			t.Fatalf("trial %d: profiling run ended %v at dyn %d, want a pause at %d", tr.Index, st, p.CPU.Dyn, fireDyn)
		}
		var occ uint64
		for img, cnts := range p.CPU.Counts {
			if img.Prog.Name == tr.Inj.Image {
				occ = cnts[tr.Inj.StaticIdx]
			}
		}
		named := map[string][]ArmSpec{
			"at-dyn": {{Trigger: Trigger{AtDyn: tr.Inj.TargetDyn}, Bits: tr.Inj.Bits}},
			"occurrence": {{
				Trigger: Trigger{Image: tr.Inj.Image, StaticIdx: tr.Inj.StaticIdx, Occurrence: occ},
				Bits:    tr.Inj.Bits,
			}},
		}
		for name, specs := range named {
			wst, wdyn, wjoin, wres := driveEnd(t, bin, prof, specs, budget)
			cst, cdyn, _, cres := driveEnd(t, bin, cold, specs, budget)
			if !wjoin {
				t.Errorf("trial %d (%s, occurrence %d): warm run did not rejoin; it ended %v at dyn %d", tr.Index, name, occ, wst, wdyn)
			}
			if wst != machine.StatusExited || cst != machine.StatusExited || wdyn != prof.TotalDyn || cdyn != prof.TotalDyn ||
				!slices.Equal(wres, prof.Golden) || !slices.Equal(cres, prof.Golden) {
				t.Errorf("trial %d (%s): warm ended %v at dyn %d, cold %v at dyn %d; want both the golden exit at %d",
					tr.Index, name, wst, wdyn, cst, cdyn, prof.TotalDyn)
			}
		}
	}
	if rejoined == 0 {
		t.Fatal("no trial of the warm campaign rejoined the golden run")
	}
	t.Logf("%d of %d trials rejoined", rejoined, c.N)
}

// TestWarmSnapForKeepsTriggersAhead pins the warm-start rule: the
// latest snapshot at which every trigger still lies ahead. A snapshot
// taken at exactly an AtDyn target has already retired the target
// instruction uncorrupted, so only strictly earlier snapshots qualify,
// and with several faults the earliest target decides. An occurrence
// trigger's seed (its instruction's count at the snapshot) must stay
// strictly below the occurrence.
func TestWarmSnapForKeepsTriggersAhead(t *testing.T) {
	snap := func(dyn, count uint64) profiler.SnapPoint {
		return profiler.SnapPoint{Dyn: dyn, Counts: map[string][]uint64{"app": {7, 0, count}}}
	}
	prof := &profiler.Profile{Snaps: []profiler.SnapPoint{snap(10, 3), snap(20, 5), snap(30, 5)}}
	at := func(dyn uint64) ArmSpec { return ArmSpec{Trigger: Trigger{AtDyn: dyn}} }
	occ := func(idx int, k uint64) ArmSpec {
		return ArmSpec{Trigger: Trigger{Image: "app", StaticIdx: idx, Occurrence: k}}
	}
	for _, tc := range []struct {
		name  string
		specs []ArmSpec
		want  uint64   // the snapshot's Dyn; 0 = cold start
		seed  []uint64 // the occurrence seeds (AtDyn specs seed 0)
	}{
		{"at-5", []ArmSpec{at(5)}, 0, nil},
		{"at-10", []ArmSpec{at(10)}, 0, nil},
		{"at-11", []ArmSpec{at(11)}, 10, []uint64{0}},
		{"at-20", []ArmSpec{at(20)}, 10, []uint64{0}},
		{"at-30", []ArmSpec{at(30)}, 20, []uint64{0}},
		{"at-31", []ArmSpec{at(31)}, 30, []uint64{0}},
		{"at-far", []ArmSpec{at(1 << 30)}, 30, []uint64{0}},
		{"two-faults-earliest-second", []ArmSpec{at(31), at(15)}, 10, []uint64{0, 0}},
		{"two-faults-earliest-first", []ArmSpec{at(25), at(1 << 30)}, 20, []uint64{0, 0}},
		{"occurrence-at-seed", []ArmSpec{occ(2, 3)}, 0, nil},
		{"occurrence-above-seed", []ArmSpec{occ(2, 4)}, 10, []uint64{3}},
		{"occurrence-equals-later-seed", []ArmSpec{occ(2, 5)}, 10, []uint64{3}},
		{"occurrence-above-every-seed", []ArmSpec{occ(2, 6)}, 30, []uint64{5}},
		{"occurrence-first-of-many", []ArmSpec{occ(0, 7)}, 0, nil},
		{"occurrence-not-yet-run", []ArmSpec{occ(1, 1)}, 30, []uint64{0}},
		{"occurrence-and-at-dyn", []ArmSpec{occ(2, 6), at(25)}, 20, []uint64{5, 0}},
		{"two-occurrences", []ArmSpec{occ(2, 6), occ(2, 5)}, 10, []uint64{3, 3}},
	} {
		sp, seed := warmSnapFor(prof, tc.specs)
		switch {
		case tc.want == 0 && (sp != nil || seed != nil):
			t.Errorf("%s: warm start from %+v with seeds %v, want a cold start", tc.name, sp, seed)
		case tc.want != 0 && (sp == nil || sp.Dyn != tc.want || !slices.Equal(seed, tc.seed)):
			t.Errorf("%s: got snapshot %+v with seeds %v, want the snapshot at %d with seeds %v", tc.name, sp, seed, tc.want, tc.seed)
		}
	}
}

// TestWarmStartCoverageEquivalence asserts the §5 coverage path under
// warm start: occurrence-triggered faults fire on exactly the same
// retirement as cold thanks to the pre-seeded occurrence counters, so
// every logical field matches (only wall-clock timings may differ). The
// second shape is the benchmark's injection search (GTC-P, search seed
// 75), whose recovered attempts rejoin the golden run once the recovery
// kernel has run: each of its clean recoveries is driven again warm and
// must rejoin.
func TestWarmStartCoverageEquivalence(t *testing.T) {
	gtcp, err := workloads.Get("GTC-P")
	if err != nil {
		t.Fatal(err)
	}
	search, err := core.Build(gtcp.Module(workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12}),
		core.BuildOptions{Defenses: []string{"care"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		exp    CoverageExperiment
		rejoin bool
	}{
		{"HPCCG", CoverageExperiment{App: buildWorkload(t, "HPCCG", 0, true), Trials: 12, Seed: 21}, false},
		{"GTC-P-search", CoverageExperiment{App: search, Trials: 4, MaxAttempts: 400, Seed: 75}, true},
	} {
		run := func(warm bool) (*CoverageResult, *profiler.Profile) {
			e := tc.exp
			e.Model, e.RecordInjections, e.Workers, e.WarmStart = SingleBit, true, 4, warm
			prof, err := e.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.runProfiled(prof)
			if err != nil {
				t.Fatal(err)
			}
			return res, prof
		}
		cold, _ := run(false)
		warm, prof := run(true)
		scrub := func(r *CoverageResult) CoverageResult {
			c := *r
			c.Events = nil
			c.TrialRecoveryTimes = nil
			c.Trace = nil // compared separately, with Wall times scrubbed
			return c
		}
		if a, b := scrub(warm), scrub(cold); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: warm coverage differs from cold:\n%+v\nvs\n%+v", tc.name, a, b)
		}
		requireTraceSkeletonEqual(t, warm.Trace, cold.Trace)
		if !tc.rejoin {
			continue
		}
		rejoined := 0
		for _, spec := range warm.RecoveredInjections {
			specs := []ArmSpec{spec}
			p, seed, err := startRun(core.ProcessConfig{App: search, Protected: true}, prof, specs)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, at := drive(p.CPU, prof, specs, seed, hangFactor*prof.TotalDyn, nil); at != nil && len(p.SG.Events()) > 0 {
				rejoined++
			}
		}
		t.Logf("%s: %d of %d clean recoveries rejoin", tc.name, rejoined, len(warm.RecoveredInjections))
		if rejoined == 0 {
			t.Fatalf("%s: none of %d clean recoveries rejoined the golden run", tc.name, len(warm.RecoveredInjections))
		}
	}
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
