// Command care-inject runs the §2 fault-injection manifestation study
// and prints Tables 2, 3 and 4 (or, with -model double, the appendix
// Tables 10 and 11). With -domain-rewind it instead runs the
// domain-rewind escalation-policy campaign on protected builds and
// prints the policy-study table. With -defense it builds the workloads
// under the given defense list (comma-separated registered pass names,
// e.g. care, presage, sfi or care,presage) and runs that single
// bake-off arm through an identical campaign, printing the
// defense-study tables.
//
// Usage:
//
//	care-inject [-n 1000] [-faults 1] [-model single|double] [-workload all|NAME] [-opt 0] [-seed 1] [-workers 0] [-defense LIST] [-domains] [-domain-rewind] [-max-rollbacks 0] [-max-domain-rewinds 0] [-trace-out FILE] [-store DIR] [-warmstart] [-snap-every N] [-interp superblock|step] [-shards 1] [-shard-cmd CMD] [-progress] [-cpuprofile FILE] [-memprofile FILE]
//
// With -store DIR campaigns consult a persistent content-addressed
// artifact store: golden-run profiles (snapshots + sealed .text) are
// cached under a key derived from the campaign configuration, so a
// second identical run skips the golden run entirely, and every
// campaign trace is sealed (Merkle root over per-trial leaves) into
// the store for care-report -trace-in/-diff. Cache hits, misses and
// deduplicated bytes are reported on stderr; stdout stays
// byte-identical to a run without -store.
//
// With -shards N (N > 1) the manifestation study spreads every
// campaign's trials, and -domain-rewind every policy cell's attempts,
// over N worker subprocesses (the shard coordinator; workers default to
// this binary re-executed with -shard-serve). Each worker prepares the
// golden profile itself, from the -store directory when one is given,
// and the coordinator merges the streamed results in index order — the
// tables and -trace-out JSONL are byte-identical to a single-process run
// (wall-clock fields aside), which the CI determinism jobs diff.
//
// The manifestation study and a -defense arm run the same campaign,
// built once from the flags, so -faults, -domains, -warmstart, -store
// and -shards apply to both alike.
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

	"care/internal/defense"
	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/store"
	"care/internal/trace"
	"care/internal/workloads"
)

// heartbeat returns a rate-limited stderr progress callback counting
// unit, or nil unless on (the -progress flag). Campaign workers call it
// concurrently, so it serialises on a mutex; it never touches stdout or
// the traces.
func heartbeat(on bool, unit string) func(done, total int) {
	if !on {
		return nil
	}
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
		rate := float64(done) / el
		line := fmt.Sprintf("progress: %d/%d %s (%.1f/s", done, total, unit, rate)
		if rate > 0 && done < total {
			eta := time.Duration(float64(total-done) / rate * float64(time.Second))
			line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line+")")
	}
}

// shardExecArgv resolves the worker argv for -shards: an explicit
// -shard-cmd, or this binary re-executed in -shard-serve mode.
func shardExecArgv(shardCmd string) []string {
	if shardCmd != "" {
		return strings.Fields(shardCmd)
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	return []string{exe, "-shard-serve"}
}

// writeTrace merges the per-row campaign traces (Rank = row index) and
// writes them as JSONL.
func writeTrace(path string, traces []*trace.Recorder) {
	total := 0
	for _, tr := range traces {
		total += tr.Len()
	}
	merged := trace.New(total)
	for i, tr := range traces {
		merged.MergeAs(tr, int32(i))
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := merged.WriteJSONL(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", merged.Len(), path)
}

func main() {
	n := flag.Int("n", 400, "injections per workload (the paper used 10000)")
	faults := flag.Int("faults", 1, "independent faults armed per trial (multi-fault model; 1 = paper setup)")
	model := flag.String("model", "single", "fault model: single or double bit flips")
	workload := flag.String("workload", "all", "workload name or 'all'")
	opt := flag.Int("opt", 0, "optimisation level (0 or 1)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent injection workers (0 = one per CPU; results are identical for any value)")
	def := flag.String("defense", "", "run one defense-study arm instead of the manifestation study: comma-separated defense passes (registered: "+strings.Join(defense.Names(), ", ")+")")
	domains := flag.Bool("domains", false, "attribute memory-symptom soft failures to isolation domains (adds the crash-geography table)")
	domainRewind := flag.Bool("domain-rewind", false, "run the domain-rewind escalation-policy campaign on protected builds instead of the manifestation study")
	maxRollbacks := flag.Int("max-rollbacks", 0, "whole-process rollback budget per process (0 = default of 2; domain-rewind mode)")
	maxDomainRewinds := flag.Int("max-domain-rewinds", 0, "domain-rewind budget per domain (0 = default of 2; domain-rewind mode)")
	traceOut := flag.String("trace-out", "", "write the merged campaign trace as JSONL to this file (Rank = workload index)")
	storeDir := flag.String("store", "", "persistent artifact store directory: cache golden-run profiles across runs (a second identical campaign skips the golden run) and seal per-campaign traces; results stay byte-identical")
	warmStart := flag.Bool("warmstart", false, "clone trials from golden-run snapshots instead of replaying the fault-free prefix (results are identical)")
	snapEvery := flag.Uint64("snap-every", 0, "golden-run snapshot cadence in dynamic instructions (0 = about 63 snapshots, TotalDyn/64+1 apart; only with -warmstart)")
	interp := flag.String("interp", "superblock", "interpreter tier for trial processes: superblock (fused engine) or step (legacy per-instruction loop; results are identical)")
	shards := flag.Int("shards", 1, "split each campaign's trial index space over this many worker subprocesses (results are byte-identical for any value)")
	shardCmd := flag.String("shard-cmd", "", "worker command for -shards, space-separated (default: this binary with -shard-serve)")
	shardServe := flag.Bool("shard-serve", false, "run as a shard worker: speak the length-prefixed frame protocol on stdin/stdout (internal; spawned by -shards)")
	progress := flag.Bool("progress", false, "periodic heartbeat on stderr (trials done, rate, ETA); never written to stdout or traces")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *shardServe {
		if err := shard.Serve(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	var shardExec []string
	if *shards > 1 {
		shardExec = shardExecArgv(*shardCmd)
	}

	// The artifact store is an accelerator, never an authority: campaigns
	// consult it for cached golden-run profiles and fall back to a cold
	// run on any mismatch; stdout stays byte-identical either way.
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatal(err)
		}
		defer func() { fmt.Fprintln(os.Stderr, st.StatsLine()) }()
	}

	tier, err := machine.ParseInterpTier(*interp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defs := defense.ParseList(*def)
	if _, err := defense.Resolve(defs); err != nil {
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

	m, err := faultinject.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// One shared validation point for the escalation budgets (the same
	// Policy.Validate care-cluster uses).
	pol := safeguard.Policy{MaxRollbacks: *maxRollbacks, MaxDomainRewinds: *maxDomainRewinds}
	if err := pol.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	names := experiments.AllNames()
	if *def != "" && *workload == "all" {
		names = experiments.DefenseNames()
	}
	if *workload != "all" {
		// An unknown name fails its build (shard.BuildSpec.Build).
		names = []string{*workload}
	}

	if *domainRewind && *def == "" {
		// Domain-rewind policy campaign: multi-fault trials on protected
		// builds, with the full escalation chain ending in domain rewind
		// before whole-process rollback.
		spec := experiments.DomainRewindSpec(pol)
		if *warmStart && spec.Safeguard.Policy.NeedsStore() {
			// The Safeguard's checkpoint store starts at _start, so
			// CoverageExperiment.Prepare runs such a policy cold.
			fmt.Fprintln(os.Stderr, "coverage.warmstart=off (policy restores checkpoints; attempts start at _start)")
		}
		rows, err := experiments.PolicyStudy(names, *opt, workloads.Params{},
			[]experiments.PolicySpec{spec},
			faultinject.CoverageExperiment{
				Trials: *n, FaultsPerTrial: *faults, Model: m, Seed: *seed, Workers: *workers, Tier: tier,
				WarmStart: *warmStart, SnapEvery: *snapEvery,
				Shards: *shards, ShardExec: shardExec, Progress: heartbeat(*progress, "trials"), Store: st,
			})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatPolicyStudy(rows))
		if *traceOut != "" {
			traces := make([]*trace.Recorder, len(rows))
			for i := range rows {
				traces[i] = rows[i].Res.Trace
			}
			writeTrace(*traceOut, traces)
		}
		return
	}

	camp := faultinject.Campaign{
		N: *n, FaultsPerTrial: *faults, Model: m, Seed: *seed, Workers: *workers,
		Trace: *traceOut != "" || *domains || st != nil, WarmStart: *warmStart, SnapEvery: *snapEvery,
		Tier: tier, Domains: *domains, Shards: *shards, ShardExec: shardExec,
		Progress: heartbeat(*progress, "trials"), Store: st,
	}
	// One campaign result per name, in names order: the manifestation
	// study's rows, or the cells of a single bake-off arm (the same
	// campaign on builds defended by the given list).
	results := make([]*faultinject.CampaignResult, len(names))
	if *def != "" {
		arm := experiments.DefenseArm{Name: strings.Join(defs, "+"), Defenses: defs}
		cells, err := experiments.DefenseStudy(names, []experiments.DefenseArm{arm}, *opt, workloads.Params{}, camp, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatDefenseStudy(cells))
		for i := range cells {
			results[i] = cells[i].Res
		}
	} else {
		rows, err := experiments.OutcomeStudy(names, *opt, workloads.Params{}, camp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatOutcomeTables(rows))
		for i := range rows {
			results[i] = rows[i].Res
		}
	}

	if *warmStart {
		// Warm-start accounting goes to stderr so stdout stays
		// byte-identical to a cold run (the CI smoke diffs it): the golden
		// prefix the warm trials skipped, and the golden suffix skipped by
		// trials that rejoined the golden run at a snapshot.
		var total faultinject.WarmStartStats
		for _, res := range results {
			if ws := res.WarmStart; ws != nil {
				total.Snapshots += ws.Snapshots
				total.WarmTrials += ws.WarmTrials
				total.SkippedDyn += ws.SkippedDyn
				total.ConvergedTrials += ws.ConvergedTrials
				total.ConvergedDyn += ws.ConvergedDyn
			}
		}
		fmt.Fprintf(os.Stderr, "campaign.warmstart.skipped-dyn=%d (snapshots=%d, warm-trials=%d)\n", total.SkippedDyn, total.Snapshots, total.WarmTrials)
		fmt.Fprintf(os.Stderr, "campaign.warmstart.converged=%d (converged-dyn=%d)\n", total.ConvergedTrials, total.ConvergedDyn)
	}

	if st != nil {
		// Seal every campaign trace into the store (traces/<keyID>.jsonl
		// + Merkle seal), keyed exactly like the golden-run manifest so
		// the inventory row joins profile, snapshots and seal. The seal
		// is what care-report -diff localises divergence with.
		for i, name := range names {
			key := shard.BuildSpec{Workload: name, OptLevel: *opt, Defenses: defs}.Key("campaign", *seed, *warmStart, *snapEvery)
			if _, err := st.PutTrace(key, results[i].Trace); err != nil {
				fmt.Fprintf(os.Stderr, "store: seal %s: %v\n", name, err)
			}
		}
	}

	if *traceOut != "" {
		traces := make([]*trace.Recorder, len(results))
		for i, res := range results {
			traces[i] = res.Trace
		}
		writeTrace(*traceOut, traces)
	}
}
