package main

import (
	"fmt"
	"runtime"
	"time"

	"care/internal/core"
	"care/internal/faultinject"
	"care/internal/parallel"
	"care/internal/profiler"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/trace"
)

// coverageTrials is the number of examined SIGSEGV trials per job. A
// few trials in a hundred are recovery storms (a corrupted register
// faults on every loop iteration, costing thousands of activations), so
// a 60-trial experiment's time varies twentyfold from seed to seed;
// short jobs keep most jobs storm-free and the median job steady.
const coverageTrials = 10

// coverageSeeds is the number of experiment seeds a run's jobs cycle
// through: the number of attempts ten SIGSEGV trials take varies
// widely from seed to seed, so the job figures average over many.
const coverageSeeds = 30

// stormActivations marks a recovery-storm job: one whose examined
// trials average more Safeguard activations than this. Storm jobs are
// run and checked, and their activations count toward the recovery
// times, but their wall time depends on how many storms a seed draws,
// not on how fast the code is, so job_s and throughput_per_s leave them
// out, and the seed is not repeated: the next unused seed takes its
// place in the cycle. A storm-free job averages 1.2 activations per
// trial; storms run to hundreds.
const stormActivations = 5

// comdBuild is the §5 coverage binary: CARE-protected CoMD at O1, where
// induction variables live in registers (the paper's coverage-loss
// case).
var comdBuild = shard.BuildSpec{Workload: "CoMD", OptLevel: 1, Defenses: []string{"care"}}

// coverage runs the Figures 7/9 experiment: occurrence-triggered
// injections into profiled instructions, warm-started from golden
// snapshots, until coverageTrials of them raise SIGSEGV; Safeguard (the
// paper's one-shot configuration) tries to recover each.
type coverage struct {
	seed    int64
	dir     string
	workers int

	bin  *core.Binary
	prof *profiler.Profile

	// cycle holds the seeds the jobs cycle through; next is the seed
	// that replaces a storm seed.
	cycle []int64
	next  int64

	res0 *faultinject.CoverageResult
	// recovery holds the per-activation recovery time (ms) and phases
	// the per-phase times (us) of every recovered activation of every
	// job.
	recovery []float64
	phases   phaseSamples
}

func newCoverage(seed int64, dir string) *coverage {
	w := &coverage{seed: seed, dir: dir, workers: runtime.NumCPU(), phases: phaseSamples{},
		next: seed + coverageSeeds}
	for i := range int64(coverageSeeds) {
		w.cycle = append(w.cycle, seed+i)
	}
	return w
}

func (w *coverage) params() any {
	return map[string]any{"build": comdBuild, "examined_trials": coverageTrials, "workers": w.workers,
		"model": faultinject.SingleBit.String(), "safeguard": "paper one-shot", "warm_start": true,
		"campaign_seeds": fmt.Sprintf("cycle of %d from seed, storm seeds replaced", coverageSeeds)}
}

func (w *coverage) experiment(seed int64) *faultinject.CoverageExperiment {
	return &faultinject.CoverageExperiment{App: w.bin, Trials: coverageTrials, Seed: seed,
		WarmStart: true, Workers: w.workers}
}

func (w *coverage) setup(t *tracer) error {
	var err error
	if w.bin, err = buildBinary(t, comdBuild); err != nil {
		return err
	}
	return t.do("faultinject.CoverageExperiment.Prepare", func() error {
		w.prof, err = w.experiment(w.seed).Prepare()
		return err
	})
}

// runWaves is CoverageExperiment.Run after Prepare: attempts run in
// waves of four per worker and merge in attempt order until enough
// SIGSEGV trials are examined; a wave's overshoot is discarded.
func runWaves(t *tracer, e *faultinject.CoverageExperiment, prof *profiler.Profile) (*faultinject.CoverageResult, error) {
	budget := e.AttemptBudget()
	res := e.NewResult()
	chunk := 4 * parallel.Workers(e.Workers, budget)
	for base := 0; base < budget && res.SigsegvTrials < e.Trials; base += chunk {
		hi := min(base+chunk, budget)
		var atts []faultinject.AttemptResult
		err := t.do("faultinject.CoverageExperiment.RunAttemptRange", func() (err error) {
			atts, err = e.RunAttemptRange(prof, base, hi)
			return err
		})
		if err != nil {
			return nil, err
		}
		_ = t.do("faultinject.CoverageResult.MergeAttempt", func() error {
			for i := range atts {
				if res.SigsegvTrials >= e.Trials {
					break
				}
				res.MergeAttempt(&atts[i], e.RecordInjections)
			}
			return nil
		})
	}
	if res.SigsegvTrials < e.Trials {
		return nil, fmt.Errorf("only %d/%d SIGSEGV trials after %d attempts", res.SigsegvTrials, e.Trials, res.Attempts)
	}
	return res, nil
}

func (w *coverage) job(t *tracer, rep int) (jobOut, error) {
	slot := rep % len(w.cycle)
	seed := w.cycle[slot]
	start := time.Now()
	res, err := runWaves(t, w.experiment(seed), w.prof)
	dur := time.Since(start)
	if err != nil {
		return jobOut{}, err
	}
	storm := len(res.Events) > stormActivations*res.SigsegvTrials
	if storm {
		w.cycle[slot], w.next = w.next, w.next+1
	}
	for _, ev := range res.Events {
		if recovered(ev.Outcome) {
			w.recovery = append(w.recovery, float64(ev.Total())/1e6)
			w.phases.addEvent(ev)
		}
	}
	if rep == 0 {
		w.res0 = res
	}
	return jobOut{dur: dur, work: float64(res.SigsegvTrials), refSeed: seed, fp: coverageFingerprint(res),
		excluded: storm}, nil
}

// recovered reports whether an activation repaired the process (the
// outcomes CoverageExperiment counts toward recovery time).
func recovered(o safeguard.Outcome) bool {
	switch o {
	case safeguard.Recovered, safeguard.RecoveredInduction, safeguard.DomainRewound, safeguard.RolledBack:
		return true
	}
	return false
}

// reference reruns the job's experiment through the shard
// coordinator's in-process mode: its own golden pass, its own wave and
// merge loop over two shards, and a wire-encoding round trip of every
// attempt.
func (w *coverage) reference(seed int64, _ bool) (any, error) {
	e := w.experiment(seed)
	e.Shards = 2
	res, err := shard.RunCoverage(e, comdBuild)
	if err != nil {
		return nil, err
	}
	return coverageFingerprint(res), nil
}

func (w *coverage) ledger(jobs []jobOut, e2e, m metrics) {
	var work, secs float64
	var storms int
	for _, j := range jobs {
		work, secs = work+j.work, secs+j.dur.Seconds()
		if j.excluded {
			storms++
		}
	}
	m["examined_per_s"] = e2e["throughput_per_s"]
	m.set("examined_per_s_with_storms", work/secs, "1/s")
	m.set("storm_jobs", float64(storms), "count")
	m.set("jobs", float64(len(jobs)), "count")
	m.set("recovery_ms_p50", quantile(w.recovery, 0.5), "ms")
	m.set("recovery_ms_p99", quantile(w.recovery, 0.99), "ms")
	m.set("recovery_samples", float64(len(w.recovery)), "count")
}

func (w *coverage) layers(t *tracer, jobs []jobOut, m metrics) error {
	if err := probeLayers(t, w.bin, w.res0.Trace, w.dir, m); err != nil {
		return err
	}
	job0 := jobs[0].span
	m.set("faultinject.trial_s", t.within(job0, "faultinject.CoverageExperiment.RunAttemptRange").Seconds(), "s")
	m.set("faultinject.merge_ms", t.within(job0, "faultinject.CoverageResult.MergeAttempt").Seconds()*1e3, "ms")
	m.set("faultinject.useful_ratio", float64(w.res0.SigsegvTrials)/float64(w.res0.Attempts), "ratio")
	m.set("faultinject.executed_dyn", 0, "count")
	m.set("faultinject.skipped_dyn", 0, "count")
	m.set("faultinject.hang_trials", 0, "count")
	m.set("store.job_bytes_deduped", 0, "bytes")
	m.set("safeguard.activations", float64(len(w.res0.Events)), "count")
	w.phases.report(m)
	return nil
}

func (w *coverage) cleanup() {}

// coveragePrint is the deterministic outcome of a coverage experiment.
type coveragePrint struct {
	Attempts       int            `json:"attempts"`
	SigsegvTrials  int            `json:"sigsegv_trials"`
	Recovered      int            `json:"recovered"`
	CleanRecovered int            `json:"clean_recovered"`
	Failures       map[string]int `json:"failures"`
}

func coverageFingerprint(res *faultinject.CoverageResult) coveragePrint {
	p := coveragePrint{Attempts: res.Attempts, SigsegvTrials: res.SigsegvTrials, Recovered: res.Recovered,
		CleanRecovered: res.CleanRecovered, Failures: map[string]int{}}
	for o, n := range res.FailureOutcomes {
		p.Failures[string(o)] = n
	}
	return p
}

// phaseSamples collects Safeguard phase durations in microseconds,
// keyed by phase name.
type phaseSamples map[string][]float64

var phaseKinds = []trace.Kind{trace.KindDiagnose, trace.KindLoad, trace.KindFetch, trace.KindKernel, trace.KindPatch}

func (p phaseSamples) addEvent(ev safeguard.Event) {
	for i, d := range []time.Duration{ev.Diagnose, ev.Load, ev.Fetch, ev.Kernel, ev.Patch} {
		p.add(phaseKinds[i], d)
	}
	p["total"] = append(p["total"], float64(ev.Total())/1e3)
	p["prep"] = append(p["prep"], float64(ev.Prep())/1e3)
}

func (p phaseSamples) add(k trace.Kind, d time.Duration) {
	p[k.String()] = append(p[k.String()], float64(d)/1e3)
}

// report sets the per-phase medians and the preparation share of the
// total recovery time (the paper's >90% claim).
func (p phaseSamples) report(m metrics) {
	for _, k := range phaseKinds {
		m.set("safeguard."+k.String()+"_us_p50", quantile(p[k.String()], 0.5), "us")
	}
	frac := 0.0
	if tot := sum(p["total"]); tot > 0 {
		frac = sum(p["prep"]) / tot
	}
	m.set("safeguard.prep_fraction", frac, "ratio")
}
