// Command care-cluster reproduces the parallel-job experiments: the
// Figure 10 comparison (an N-rank job with a CARE-recovered fault at
// rank 0 finishes with almost no delay) and the §5.4 checkpoint/restart
// baseline for GTC-P (-cr).
//
// The paper's configuration is -ranks 512 -threads 6 (3072 cores); the
// default here is a smaller job that runs in seconds. -interp selects
// the interpreter tier for every rank (superblock or step); rank
// results and trace spans are identical on both tiers — only the
// measured wall_ns fields differ.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"care/internal/cluster"
	"care/internal/experiments"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// heartbeat returns a rate-limited stderr progress callback (the
// -progress flag): the superstep scheduler reports exited-rank counts
// through it. Serialised on a mutex; never touches stdout or traces.
func heartbeat(unit string) func(done, total int) {
	var mu sync.Mutex
	start := time.Now()
	var last time.Time
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done < total && now.Sub(last) < 2*time.Second {
			return
		}
		last = now
		el := now.Sub(start).Seconds()
		if el <= 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "progress: %d/%d %s (%.0fs elapsed)\n", done, total, unit, el)
	}
}

// writeTrace dumps a merged recorder as JSONL.
func writeTrace(path string, rec *trace.Recorder) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", rec.Len(), path)
}

func main() {
	ranks := flag.Int("ranks", 8, "MPI ranks (paper: 512)")
	threads := flag.Int("threads", 6, "threads per rank (core accounting)")
	opt := flag.Int("opt", 0, "optimisation level")
	seed := flag.Int64("seed", 1, "seed for the recoverable-injection search")
	workers := flag.Int("workers", 0, "goroutines simulating ranks per scheduler superstep (0 = one per CPU; job results are identical for any value)")
	workload := flag.String("workload", "all", "workload name or 'all' (evaluated set)")
	cr := flag.Bool("cr", false, "run the checkpoint/restart baseline instead")
	crSteps := flag.Int("cr-steps", 80, "GTC-P steps for the C/R experiment")
	crFault := flag.Int("cr-fault", 66, "step at which the fault kills the unprotected job")
	traceOut := flag.String("trace-out", "", "write the faulty-job traces (or C/R store traces) as JSONL to this file")
	storeDir := flag.String("store", "", "persistent artifact store directory: cache the recoverable-injection search's golden-run profiles across runs and attempts; job results stay identical")
	domainRewind := flag.Bool("domain-rewind", false, "arm every rank's escalation chain with the domain-rewind stage (checkpoint store + per-domain partial rollback)")
	domains := flag.Bool("domains", false, "print per-domain rewind counters from the faulty-job traces on stderr")
	maxRollbacks := flag.Int("max-rollbacks", 0, "whole-process rollback budget per rank (0 = default of 2; with -domain-rewind)")
	maxDomainRewinds := flag.Int("max-domain-rewinds", 0, "domain-rewind budget per domain per rank (0 = default of 2; with -domain-rewind)")
	warmStart := flag.Bool("warmstart", false, "warm-start the recoverable-injection search from golden-run snapshots (results are identical)")
	snapEvery := flag.Uint64("snap-every", 0, "golden-run snapshot cadence in dynamic instructions (0 = about 63 snapshots, TotalDyn/64+1 apart; only with -warmstart)")
	interp := flag.String("interp", "superblock", "interpreter tier for every rank: superblock (fused engine) or step (legacy per-instruction loop; results are identical)")
	shards := flag.Int("shards", 1, "split the recoverable-injection search over this many worker subprocesses (the found injection is identical for any value)")
	shardCmd := flag.String("shard-cmd", "", "worker command for -shards, space-separated (default: this binary with -shard-serve)")
	shardServe := flag.Bool("shard-serve", false, "run as a shard worker: speak the length-prefixed frame protocol on stdin/stdout (internal; spawned by -shards)")
	progress := flag.Bool("progress", false, "periodic heartbeat on stderr (ranks exited per scheduler superstep); never written to stdout or traces")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *shardServe {
		if err := shard.Serve(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	tier, err := machine.ParseInterpTier(*interp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *cr {
		rows, err := experiments.CRStudy([]int{20, 50, 75}, *crSteps, *crFault, workloads.Params{NParticles: 80})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatCR(rows, 0))
		if *traceOut != "" {
			merged := trace.New(trace.DefaultSpanCap)
			for i, r := range rows {
				merged.MergeAs(r.Trace, int32(i))
			}
			writeTrace(*traceOut, merged)
		}
		return
	}
	names := experiments.EvaluatedNames()
	if *workload != "all" {
		names = []string{*workload}
	}
	cfg := cluster.Config{
		Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12}, OptLevel: *opt,
		Ranks: *ranks, ThreadsPerRank: *threads, Seed: *seed, Tier: tier, Workers: *workers,
	}
	search := cluster.SearchOptions{WarmStart: *warmStart, SnapEvery: *snapEvery, Tier: tier, Shards: *shards}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		search.Store = st
		defer func() { fmt.Fprintln(os.Stderr, st.StatsLine()) }()
	}
	if *shards > 1 {
		if *shardCmd != "" {
			search.ShardExec = strings.Fields(*shardCmd)
		} else {
			exe, err := os.Executable()
			if err != nil {
				log.Fatal(err)
			}
			search.ShardExec = []string{exe, "-shard-serve"}
		}
	}
	if *progress {
		cfg.Progress = heartbeat("ranks")
	}
	// Same shared validation point as care-inject (satellite of the
	// budget plumbing): reject negative budgets before any rank runs.
	pol := safeguard.Policy{MaxRollbacks: *maxRollbacks, MaxDomainRewinds: *maxDomainRewinds}
	if err := pol.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *domainRewind {
		cfg.Safeguard = experiments.DomainRewindSpec(pol).Safeguard
	}
	rows, err := experiments.ParallelStudy(names, cfg, search)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatParallel(rows))
	if *domains {
		// Per-domain rewind attribution, derived from the faulty-job
		// traces; stderr so stdout stays diffable against a run without
		// the flag.
		for _, r := range rows {
			for d := machine.DomainID(0); d < machine.NumDomains; d++ {
				if n := r.Faulty.Trace.Counter(safeguard.DomainRewindCounter(d)); n > 0 {
					fmt.Fprintf(os.Stderr, "%s: %s=%d\n", r.Workload, safeguard.DomainRewindCounter(d), n)
				}
			}
		}
	}
	if *traceOut != "" {
		// Per-rank attribution lives in the span Rank fields already, so
		// plain Merge keeps it intact across workloads.
		total := 0
		for _, r := range rows {
			total += r.Faulty.Trace.Len()
		}
		merged := trace.New(total)
		for _, r := range rows {
			merged.Merge(r.Faulty.Trace)
		}
		writeTrace(*traceOut, merged)
	}
}
