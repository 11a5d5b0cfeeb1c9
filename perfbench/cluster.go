package main

import (
	"runtime"
	"time"

	"care/internal/cluster"
	"care/internal/core"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/trace"
	"care/internal/workloads"
)

// clusterRanks is the job width (the Figure 10 shape at 64 ranks).
const clusterRanks = 64

// gtcpBuild is the Figure 10 binary: CARE-protected GTC-P at O0, with
// enough steps per rank that the two jobs outweigh the injection
// search, and few enough that a run repeats the job pair many times.
var gtcpBuild = shard.BuildSpec{Workload: "GTC-P", Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12},
	Defenses: []string{"care"}}

// searchSeeds are the injection-search seeds the workload draws from:
// those of 0-127 whose search finds a recoverable injection on its
// first experiment after exactly 8 attempts and 5 Safeguard
// activations. The search is part of the set-up, and across all seeds
// its cost varies fourfold (a hundredfold with a recovery storm), which
// would make set-up and total time measure the seed instead of the code.
var searchSeeds = []int64{9, 51, 75, 95, 96, 109, 118}

// clusterJob runs the §5.4 parallel experiment: find an injection CARE
// recovers on one rank (the search warm-starts from golden snapshots,
// as care-cluster -warmstart does), then run a fault-free and a faulty 64-rank job
// under the superstep scheduler. Every job repeats the same injection,
// so a run's jobs are identical work.
type clusterJob struct {
	seed    int64
	dir     string
	workers int
	// search is the injection-search seed, searchSeeds[seed mod len].
	search int64

	bin *core.Binary
	inj *cluster.Injection

	base0, faulty0 *cluster.JobResult
	// stalls and phases accumulate every faulty job's recovery stall
	// (ms) and Safeguard phase times.
	stalls []float64
	phases phaseSamples
}

func newCluster(seed int64, dir string) *clusterJob {
	n := int64(len(searchSeeds))
	return &clusterJob{seed: seed, dir: dir, workers: runtime.NumCPU(), phases: phaseSamples{},
		search: searchSeeds[(seed%n+n)%n]}
}

func (w *clusterJob) params() any {
	return map[string]any{"build": gtcpBuild, "ranks": clusterRanks, "workers": w.workers,
		"safeguard": "paper one-shot", "injection_seed": w.search}
}

func (w *clusterJob) config(workers int) cluster.Config {
	return cluster.Config{Workload: gtcpBuild.Workload, Params: gtcpBuild.Params, OptLevel: gtcpBuild.OptLevel,
		Ranks: clusterRanks, Protected: true, Workers: workers}
}

func (w *clusterJob) setup(t *tracer) error {
	var err error
	if w.bin, err = buildBinary(t, gtcpBuild); err != nil {
		return err
	}
	return t.do("cluster.FindRecoverableInjection", func() error {
		w.inj, err = cluster.FindRecoverableInjection(w.bin, w.search, cluster.SearchOptions{WarmStart: true})
		return err
	})
}

// runPair runs the fault-free and the faulty job.
func (w *clusterJob) runPair(t *tracer, inj *cluster.Injection, workers int) (base, faulty *cluster.JobResult, err error) {
	cfg := w.config(workers)
	err = t.do("cluster.RunJob.baseline", func() (err error) {
		base, err = cluster.RunJob(cfg, w.bin, nil)
		return err
	})
	if err == nil {
		err = t.do("cluster.RunJob.faulty", func() (err error) {
			faulty, err = cluster.RunJob(cfg, w.bin, inj)
			return err
		})
	}
	return base, faulty, err
}

func (w *clusterJob) job(t *tracer, rep int) (jobOut, error) {
	start := time.Now()
	base, faulty, err := w.runPair(t, w.inj, w.workers)
	dur := time.Since(start)
	if err != nil {
		return jobOut{}, err
	}
	w.stalls = append(w.stalls, float64(faulty.RecoveryStall)/1e6)
	for _, s := range faulty.Trace.Spans() {
		switch s.Kind {
		case trace.KindDiagnose, trace.KindLoad, trace.KindFetch, trace.KindKernel, trace.KindPatch:
			w.phases.add(s.Kind, s.Wall)
			us := float64(s.Wall) / 1e3
			w.phases["total"] = append(w.phases["total"], us)
			if s.Kind != trace.KindKernel {
				w.phases["prep"] = append(w.phases["prep"], us)
			}
		}
	}
	if rep == 0 {
		w.base0, w.faulty0 = base, faulty
	}
	return jobOut{dur: dur, work: 2, refSeed: w.search, fp: clusterFingerprint(w.inj, base, faulty)}, nil
}

// reference repeats the experiment on the independent paths the
// package guarantees equal: a cold injection search and jobs scheduled
// on a single worker.
func (w *clusterJob) reference(seed int64, _ bool) (any, error) {
	inj, err := cluster.FindRecoverableInjection(w.bin, seed, cluster.SearchOptions{})
	if err != nil {
		return nil, err
	}
	base, faulty, err := w.runPair(newTracer(false, ""), inj, 1)
	if err != nil {
		return nil, err
	}
	return clusterFingerprint(inj, base, faulty), nil
}

func (w *clusterJob) ledger(_ []jobOut, e2e, m metrics) {
	m["job_s"] = e2e["job_s"]
}

func (w *clusterJob) layers(t *tracer, jobs []jobOut, m metrics) error {
	if err := probeLayers(t, w.bin, w.faulty0.Trace, w.dir, m); err != nil {
		return err
	}
	baseS := median(t.durations("cluster.RunJob.baseline"))
	m.set("cluster.search_s", median(t.durations("cluster.FindRecoverableInjection")), "s")
	m.set("cluster.base_job_s", baseS, "s")
	m.set("cluster.faulty_job_s", median(t.durations("cluster.RunJob.faulty")), "s")
	m.set("cluster.rank_minstr_s", float64(w.base0.TotalDyn)/1e6/baseS, "Minstr/s")
	m.set("cluster.stall_ms", median(w.stalls), "ms")
	m.set("faultinject.executed_dyn", 0, "count")
	m.set("faultinject.skipped_dyn", 0, "count")
	m.set("faultinject.hang_trials", 0, "count")
	m.set("faultinject.useful_ratio", 0, "ratio")
	m.set("store.job_bytes_deduped", 0, "bytes")
	var acts int
	for _, s := range w.faulty0.Trace.Spans() {
		if s.Kind == trace.KindActivation && s.Outcome != string(safeguard.WrongSignal) {
			acts++
		}
	}
	m.set("safeguard.activations", float64(acts), "count")
	w.phases.report(m)
	return nil
}

func (w *clusterJob) cleanup() {}

// clusterPrint is the deterministic outcome of the job pair.
type clusterPrint struct {
	Injection cluster.Injection `json:"injection"`
	Baseline  jobPrint          `json:"baseline"`
	Faulty    jobPrint          `json:"faulty"`
}

type jobPrint struct {
	Completed  bool   `json:"completed"`
	Injected   bool   `json:"injected"`
	MaxDyn     uint64 `json:"max_dyn"`
	TotalDyn   uint64 `json:"total_dyn"`
	Recoveries int    `json:"recoveries"`
	DeadRank   int    `json:"dead_rank"`
}

func clusterFingerprint(inj *cluster.Injection, base, faulty *cluster.JobResult) clusterPrint {
	jp := func(r *cluster.JobResult) jobPrint {
		return jobPrint{Completed: r.Completed, Injected: r.Injected, MaxDyn: r.MaxDyn, TotalDyn: r.TotalDyn,
			Recoveries: r.Recoveries, DeadRank: r.DeadRank}
	}
	return clusterPrint{Injection: *inj, Baseline: jp(base), Faulty: jp(faulty)}
}
